"""Tests for the analysis toolkit (repro.analysis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    Ecdf,
    accuracy_auc,
    bar_chart,
    cdf_table,
    curve_table,
    gaussian_tail_split,
    interpolated_steps_to_target,
    is_diverged,
    sparkline,
    speedup_percent,
    summarize,
)


class TestEcdf:
    def test_basic_probabilities(self):
        ecdf = Ecdf(np.array([1.0, 2.0, 3.0, 4.0]))
        assert ecdf(0.5) == 0.0
        assert ecdf(2.0) == 0.5
        assert ecdf(4.0) == 1.0
        assert ecdf(100.0) == 1.0

    def test_quantile_inverts_cdf(self):
        values = np.arange(1, 101, dtype=float)
        ecdf = Ecdf(values)
        assert ecdf.quantile(0.5) == pytest.approx(50.5)
        assert ecdf.quantile(0.0) == 1.0
        assert ecdf.quantile(1.0) == 100.0

    def test_curve_monotone(self):
        rng = np.random.default_rng(0)
        ecdf = Ecdf(rng.normal(size=200))
        xs, ys = ecdf.curve(points=50)
        assert (np.diff(xs) > 0).all()
        assert (np.diff(ys) >= 0).all()
        assert ys[-1] == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            Ecdf(np.array([]))
        with pytest.raises(ValueError):
            Ecdf(np.array([np.inf]))
        with pytest.raises(ValueError):
            Ecdf(np.array([1.0])).quantile(1.5)
        with pytest.raises(ValueError):
            Ecdf(np.array([1.0])).curve(points=1)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_cdf_properties(self, values):
        ecdf = Ecdf(np.array(values))
        lo, hi = ecdf.support()
        assert ecdf(lo - 1.0) == 0.0
        assert ecdf(hi) == 1.0


class TestSummaries:
    def test_summarize_known_sample(self):
        summary = summarize(np.arange(1, 101, dtype=float))
        assert summary.mean == pytest.approx(50.5)
        assert summary.median == pytest.approx(50.5)
        assert summary.maximum == 100.0
        assert summary.n == 100
        assert summary.p90 <= summary.p99 <= summary.maximum

    def test_row_rendering(self):
        row = summarize(np.array([1.0, 2.0, 3.0])).row(unit="mWh")
        assert "mWh" in row and "n=3" in row

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize(np.array([]))

    def test_gaussian_tail_split(self):
        rng = np.random.default_rng(1)
        body = rng.normal(25.0, 8.0, size=2000)
        tail = rng.uniform(150.0, 300.0, size=40)
        split_body, split_tail = gaussian_tail_split(np.concatenate([body, tail]))
        assert split_tail.size >= 35  # nearly all planted outliers isolated
        assert split_body.size >= 1990
        assert split_tail.min() > split_body.max()

    def test_tail_split_validation(self):
        with pytest.raises(ValueError):
            gaussian_tail_split(np.array([]))
        with pytest.raises(ValueError):
            gaussian_tail_split(np.array([1.0]), tail_z=0.0)


class TestConvergenceMetrics:
    def test_interpolated_crossing(self):
        steps = np.array([0, 100, 200])
        accuracy = np.array([0.0, 0.5, 1.0])
        assert interpolated_steps_to_target(steps, accuracy, 0.75) == pytest.approx(150.0)

    def test_target_never_reached(self):
        assert interpolated_steps_to_target(
            np.array([0, 100]), np.array([0.1, 0.2]), 0.9
        ) is None

    def test_first_point_above_target(self):
        assert interpolated_steps_to_target(
            np.array([50, 100]), np.array([0.9, 0.95]), 0.8
        ) == 50.0

    def test_flat_segment_crossing(self):
        steps = np.array([0, 10, 20])
        accuracy = np.array([0.5, 0.8, 0.8])
        assert interpolated_steps_to_target(steps, accuracy, 0.8) == pytest.approx(10.0)

    def test_invalid_curves(self):
        with pytest.raises(ValueError):
            interpolated_steps_to_target(np.array([0, 0]), np.array([0.1, 0.2]), 0.5)
        with pytest.raises(ValueError):
            interpolated_steps_to_target(np.array([]), np.array([]), 0.5)
        with pytest.raises(ValueError):
            accuracy_auc(np.array([1, 2]), np.array([0.5]))

    def test_auc_bounds_and_values(self):
        steps = np.array([0, 100])
        assert accuracy_auc(steps, np.array([1.0, 1.0])) == pytest.approx(1.0)
        assert accuracy_auc(steps, np.array([0.0, 0.0])) == pytest.approx(0.0)
        assert accuracy_auc(steps, np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_auc_single_point(self):
        assert accuracy_auc(np.array([10]), np.array([0.7])) == pytest.approx(0.7)

    def test_speedup_matches_paper_phrasing(self):
        # Baseline 1000 steps, candidate 816: 18.4 % faster (paper's D2 gap).
        assert speedup_percent(1000.0, 816.0) == pytest.approx(18.4)
        assert speedup_percent(None, 100.0) is None
        assert speedup_percent(100.0, None) is None
        with pytest.raises(ValueError):
            speedup_percent(0.0, 10.0)

    def test_is_diverged(self):
        chance = 0.1
        stuck = np.array([0.3, 0.12, 0.09, 0.11])
        learning = np.array([0.1, 0.3, 0.6, 0.8])
        assert is_diverged(stuck, chance)
        assert not is_diverged(learning, chance)
        with pytest.raises(ValueError):
            is_diverged(np.array([]), chance)
        with pytest.raises(ValueError):
            is_diverged(stuck, 1.5)


class TestCharts:
    def test_sparkline_extremes(self):
        line = sparkline(np.array([0.0, 1.0]), low=0.0, high=1.0)
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_flat_series(self):
        assert len(set(sparkline(np.array([2.0, 2.0, 2.0])))) == 1

    def test_sparkline_validation(self):
        with pytest.raises(ValueError):
            sparkline(np.array([]))
        with pytest.raises(ValueError):
            sparkline(np.array([1.0]), low=2.0, high=1.0)

    def test_bar_chart_alignment_and_scaling(self):
        chart = bar_chart(["adasgd", "dynsgd"], np.array([10.0, 5.0]), width=10)
        lines = chart.split("\n")
        assert len(lines) == 2
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_bar_chart_validation(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            bar_chart(["a"], np.array([-1.0]))
        with pytest.raises(ValueError):
            bar_chart([], np.array([]))

    def test_cdf_table_contents(self):
        table = cdf_table(np.arange(100, dtype=float), unit="s")
        assert "n=100" in table and "p90=" in table and "s" in table

    def test_curve_table_downsamples(self):
        steps = np.arange(0, 1000, 10)
        accuracy = np.linspace(0.0, 1.0, steps.size)
        row = curve_table(steps, accuracy, "adasgd", spark_width=20)
        assert "final=1.000" in row and "adasgd" in row

    def test_curve_table_validation(self):
        with pytest.raises(ValueError):
            curve_table(np.array([1, 2]), np.array([0.5]), "x")


# ======================================================================
# Project-invariant linter (repro.analysis.lint)
# ======================================================================

import json as _json
import textwrap
from pathlib import Path

from repro.analysis.lint import (
    Baseline,
    LintConfig,
    analyze_source,
    run_lint,
    split_new_findings,
)
from repro.analysis.lint.runner import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def codes(source, path="pkg/mod.py", select=None):
    """Lint a dedented snippet; return the finding codes in order."""
    config = LintConfig(select=tuple(select)) if select else LintConfig()
    return [
        f.rule for f in analyze_source(textwrap.dedent(source), path, config)
    ]


class TestClockRules:
    # -- positive: wall-clock reads and sleeps are flagged ---------------
    def test_time_time_flagged(self):
        assert codes("import time\ndef f():\n    return time.time()\n") == [
            "RPR001"
        ]

    def test_datetime_now_flagged(self):
        src = """\
            import datetime
            def stamp():
                return datetime.datetime.now()
        """
        assert codes(src) == ["RPR001"]

    def test_aliased_monotonic_flagged(self):
        assert codes("import time as t\ndef f():\n    return t.monotonic()\n") == [
            "RPR001"
        ]

    def test_from_import_sleep_flagged(self):
        assert codes("from time import sleep\ndef f():\n    sleep(0.1)\n") == [
            "RPR002"
        ]

    # -- negative: durations, instance clocks, allowlists ----------------
    def test_perf_counter_allowed(self):
        assert codes("import time\ndef f():\n    return time.perf_counter()\n") == []

    def test_instance_clock_allowed(self):
        src = """\
            class Sim:
                def now(self):
                    return self.clock.now()
        """
        assert codes(src) == []

    def test_wall_clock_pragma_allowlists_module(self):
        src = "# repro: wall-clock\nimport time\ndef f():\n    return time.time()\n"
        assert codes(src) == []

    def test_allowlisted_path_suffix(self):
        source = "import time\ndef f():\n    return time.time()\n"
        assert codes(source, path="src/repro/cli.py") == []


class TestLockRules:
    # The fixtures that build a lock carry the ``# repro: threads`` pragma:
    # only a module that opts out of thread confinement (RPR103) owns one.

    # -- positive: guarded attributes touched outside their lock ---------
    def test_unlocked_read_flagged(self):
        src = """\
            # repro: threads
            import threading
            class Ring:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._events = []  # guarded-by: _lock
                def peek(self):
                    return len(self._events)
        """
        assert codes(src) == ["RPR101"]

    def test_unlocked_write_flagged(self):
        src = """\
            # repro: threads
            import threading
            class Ring:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock
                def bump(self):
                    self._count += 1
        """
        # AugAssign touches the attribute as both read and write context.
        assert "RPR101" in codes(src)

    def test_unknown_lock_name_flagged(self):
        src = """\
            class Ring:
                def __init__(self):
                    self._events = []  # guarded-by: _mutex
        """
        assert codes(src) == ["RPR102"]

    # -- negative: with-blocks, __init__, unannotated attributes ---------
    def test_with_block_access_clean(self):
        src = """\
            # repro: threads
            import threading
            class Ring:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._events = []  # guarded-by: _lock
                def add(self, event):
                    with self._lock:
                        self._events.append(event)
        """
        assert codes(src) == []

    def test_init_exempt(self):
        src = """\
            # repro: threads
            import threading
            class Ring:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._events = []  # guarded-by: _lock
                    self._events.append(0)
        """
        assert codes(src) == []

    def test_unannotated_attribute_free(self):
        src = """\
            # repro: threads
            import threading
            class Saver:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._error = None  # guarded-by: _lock
                    self._saved = 0
                def done(self):
                    self._saved += 1
                    with self._lock:
                        self._error = None
        """
        assert codes(src) == []


class TestThreadRules:
    # -- positive: threads, pools and locks outside a pragma module ------
    def test_thread_flagged(self):
        src = """\
            import threading
            def spawn(fn):
                threading.Thread(target=fn).start()
        """
        assert codes(src) == ["RPR103"]

    def test_aliased_lock_flagged(self):
        src = """\
            from threading import Lock as Mutex
            import threading as th
            class Ring:
                def __init__(self):
                    self._lock = Mutex()
                    self._idle = th.Condition()
        """
        assert codes(src) == ["RPR103", "RPR103"]

    def test_run_in_executor_flagged(self):
        src = """\
            import asyncio
            async def decode(blob):
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(None, bytes, blob)
        """
        assert codes(src) == ["RPR103"]

    def test_thread_pool_and_to_thread_flagged(self):
        src = """\
            import asyncio
            from concurrent import futures
            async def fan_out(fn):
                pool = futures.ThreadPoolExecutor(max_workers=2)
                return pool, await asyncio.to_thread(fn)
        """
        assert codes(src) == ["RPR103", "RPR103"]

    def test_thread_subclass_flagged(self):
        src = """\
            import threading
            class Saver(threading.Thread):
                pass
        """
        assert codes(src) == ["RPR103"]

    def test_lock_added_to_telemetry_flagged(self):
        """A copy of the metrics module that grows a lock back is flagged."""
        path = REPO_ROOT / "src" / "repro" / "server" / "telemetry.py"
        source = path.read_text(encoding="utf-8")
        assert codes(source, path="src/repro/server/telemetry.py") == []
        anchor = "        self._value = 0\n"
        assert anchor in source
        relocked = "import threading\n" + source.replace(
            anchor, anchor + "        self._lock = threading.Lock()\n", 1
        )
        assert codes(relocked, path="src/repro/server/telemetry.py") == ["RPR103"]

    # -- negative: reads of thread state, process pools, the pragma ------
    def test_get_ident_and_active_count_allowed(self):
        src = """\
            import threading
            def owner_check(owner):
                return threading.get_ident() == owner and threading.active_count()
        """
        assert codes(src) == []

    def test_process_pool_allowed(self):
        src = """\
            from concurrent.futures import ProcessPoolExecutor
            def fan_out(fn, jobs):
                with ProcessPoolExecutor(max_workers=2) as pool:
                    return list(pool.map(fn, jobs))
        """
        assert codes(src) == []

    def test_threads_pragma_allowlists_module(self):
        src = """\
            # repro: threads
            import threading
            def spawn(fn):
                threading.Thread(target=fn, name="ckpt-saver").start()
                return threading.Lock()
        """
        assert codes(src) == []

    def test_asyncio_primitives_allowed(self):
        src = """\
            import asyncio
            class Window:
                def __init__(self):
                    self._ready = asyncio.Event()
                    self._gate = asyncio.Lock()
        """
        assert codes(src) == []


class TestRngRules:
    # -- positive: global-stream draws ----------------------------------
    def test_random_random_flagged(self):
        assert codes("import random\ndef f():\n    return random.random()\n") == [
            "RPR201"
        ]

    def test_random_shuffle_flagged(self):
        src = "import random\ndef f(xs):\n    random.shuffle(xs)\n"
        assert codes(src) == ["RPR201"]

    def test_np_random_rand_flagged(self):
        src = "import numpy as np\ndef f():\n    return np.random.rand(3)\n"
        assert codes(src) == ["RPR202"]

    def test_np_random_seed_flagged(self):
        src = "import numpy as np\ndef f():\n    np.random.seed(0)\n"
        assert codes(src) == ["RPR202"]

    # -- negative: seeded generator machinery ---------------------------
    def test_default_rng_allowed(self):
        src = "import numpy as np\ndef f():\n    return np.random.default_rng(7)\n"
        assert codes(src) == []

    def test_generator_method_allowed(self):
        src = """\
            import numpy as np
            def f(rng):
                return rng.normal(size=4)
        """
        assert codes(src) == []

    def test_random_instance_allowed(self):
        src = "import random\ndef f():\n    return random.Random(7)\n"
        assert codes(src) == []


class TestHotPathRules:
    # -- positive: serialization / blocking / allocation in hot paths ----
    def test_json_in_hot_path_flagged(self):
        src = """\
            import json
            # hot-path
            def fold(record):
                return json.dumps(record)
        """
        assert codes(src) == ["RPR301"]

    def test_fsync_in_hot_path_flagged(self):
        src = """\
            import os
            # hot-path
            def append(fd):
                os.fsync(fd)
        """
        assert codes(src) == ["RPR302"]

    def test_logging_in_hot_path_flagged(self):
        src = """\
            import logging
            logger = logging.getLogger(__name__)
            # hot-path
            def fold(x):
                logger.info("folding %s", x)
        """
        assert codes(src) == ["RPR302"]

    def test_concatenate_in_hot_path_flagged(self):
        src = """\
            import numpy as np
            # hot-path
            def fold(parts):
                return np.concatenate(parts)
        """
        assert codes(src) == ["RPR303"]

    # -- negative: unmarked functions and clean hot paths ---------------
    def test_unmarked_function_free(self):
        src = "import json\ndef export(record):\n    return json.dumps(record)\n"
        assert codes(src) == []

    def test_np_stack_allowed_in_hot_path(self):
        src = """\
            import numpy as np
            # hot-path
            def fold(parts):
                return np.stack(parts)
        """
        assert codes(src) == []

    def test_perf_counter_allowed_in_hot_path(self):
        src = """\
            import time
            # hot-path
            def fold(x):
                started = time.perf_counter()
                return x, time.perf_counter() - started
        """
        assert codes(src) == []


class TestSuppression:
    def test_coded_noqa_suppresses(self):
        src = "import time\ndef f():\n    return time.time()  # repro: noqa[RPR001]\n"
        assert codes(src) == []

    def test_blanket_noqa_suppresses(self):
        src = "import time\ndef f():\n    return time.time()  # repro: noqa\n"
        assert codes(src) == []

    def test_wrong_code_does_not_suppress(self):
        src = "import time\ndef f():\n    return time.time()  # repro: noqa[RPR002]\n"
        assert codes(src) == ["RPR001"]

    def test_noqa_is_line_scoped(self):
        src = """\
            import time
            def f():
                a = time.time()  # repro: noqa[RPR001]
                return a + time.time()
        """
        assert codes(src) == ["RPR001"]

    def test_select_restricts_rules(self):
        src = "import time, random\ndef f():\n    time.sleep(random.random())\n"
        assert codes(src) == ["RPR002", "RPR201"]
        assert codes(src, select=["RPR002"]) == ["RPR002"]


VIOLATION = (
    "import time\n"
    "\n"
    "\n"
    "def stamp():\n"
    "    return time.time()\n"
)


class TestBaseline:
    def _findings(self, source, path="pkg/mod.py"):
        return analyze_source(textwrap.dedent(source), path)

    def test_baseline_grandfathers_by_symbol_not_line(self):
        found = self._findings(VIOLATION)
        baseline = Baseline.from_findings(found)
        # Shift every line down: imports added above move the finding's
        # line number, but (file, rule, symbol) still matches.
        shifted = "import os  # new import shifts lines\n" + VIOLATION
        new, old = split_new_findings(self._findings(shifted), baseline)
        assert new == []
        assert [f.rule for f in old] == ["RPR001"]
        assert old[0].line != found[0].line

    def test_extra_occurrence_beyond_budget_is_new(self):
        baseline = Baseline.from_findings(self._findings(VIOLATION))
        doubled = VIOLATION + "    return time.time()\n".replace(
            "    return", "\n\ndef stamp2():\n    return"
        )
        # Same symbol budget consumed once; a second symbol is new.
        new, old = split_new_findings(self._findings(doubled), baseline)
        assert len(old) == 1 and len(new) == 1
        assert new[0].symbol == "stamp2"

    def test_save_load_round_trip(self, tmp_path):
        baseline = Baseline.from_findings(self._findings(VIOLATION))
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.entries == baseline.entries

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "absent.json").total == 0

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ValueError):
            Baseline.load(path)


class TestRunner:
    def _seed_violation(self, tmp_path):
        tree = tmp_path / "src"
        tree.mkdir()
        (tree / "bad.py").write_text(VIOLATION)
        return tree

    def test_run_lint_fails_on_seeded_violation(self, tmp_path):
        """The CI gate: a synthetic violation exits non-zero."""
        tree = self._seed_violation(tmp_path)
        result = run_lint([tree], tmp_path)
        assert result.exit_code == 1
        assert [f.rule for f in result.new] == ["RPR001"]
        assert result.new[0].file == "src/bad.py"

    def test_main_exit_codes(self, tmp_path, capsys):
        self._seed_violation(tmp_path)
        root = str(tmp_path)
        assert lint_main(["src", "--root", root]) == 1
        assert lint_main(["src", "--root", root, "--update-baseline"]) == 0
        # Grandfathered now: same findings, exit 0.
        assert lint_main(["src", "--root", root]) == 0
        capsys.readouterr()

    def test_update_baseline_round_trip(self, tmp_path, capsys):
        tree = self._seed_violation(tmp_path)
        assert lint_main(["src", "--root", str(tmp_path), "--update-baseline"]) == 0
        baseline = Baseline.load(tmp_path / "lint-baseline.json")
        result = run_lint([tree], tmp_path)
        assert Baseline.from_findings(result.findings).entries == baseline.entries
        capsys.readouterr()

    def test_json_format_report(self, tmp_path, capsys):
        self._seed_violation(tmp_path)
        out = tmp_path / "report.json"
        code = lint_main(
            [
                "src",
                "--root",
                str(tmp_path),
                "--no-baseline",
                "--format",
                "json",
                "--output",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 1
        report = _json.loads(out.read_text())
        assert report["summary"]["new"] == 1
        assert report["new"][0]["rule"] == "RPR001"

    def test_syntax_error_reported_not_raised(self, tmp_path):
        tree = tmp_path / "src"
        tree.mkdir()
        (tree / "broken.py").write_text("def f(:\n")
        result = run_lint([tree], tmp_path)
        assert [f.rule for f in result.new] == ["RPR000"]

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_main(["nope", "--root", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_repo_tree_is_clean(self, capsys):
        """The committed tree lints clean against the committed baseline."""
        code = lint_main(["src", "benchmarks", "--root", str(REPO_ROOT)])
        capsys.readouterr()
        assert code == 0
