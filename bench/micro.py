"""Layer micro-run: one call of each layer at fixed inputs, timed in isolation.

The inputs never depend on the workload seed, so the numbers line up with the
ROADMAP baseline table (N=7 series over QQ and GF(13), li_{4,7}, one A2
mutation at precision 2).  Each value is the median over BATCHES batches of
the per-call time, with the batch size grown until a batch lasts MIN_BATCH_S.
"""

from __future__ import annotations

import statistics
from fractions import Fraction as F
from time import perf_counter

from infdilog import cluster, dilog
from infdilog.fields import GF, QQ
from infdilog.series import TruncatedSeries, exp_t, log_circ

BATCHES = 9
MIN_BATCH_S = 0.01


def _per_call(fn) -> float:
    n = 1
    while True:
        start = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - start >= MIN_BATCH_S:
            break
        n *= 2
    times = []
    for _ in range(BATCHES):
        start = perf_counter()
        for _ in range(n):
            fn()
        times.append((perf_counter() - start) / n)
    return statistics.median(times)


def run() -> dict[str, float]:
    qa = TruncatedSeries.from_coeffs(QQ, [F(3, 7), F(-5, 2), F(8, 3), F(-1, 9), F(7, 4), F(2, 5), F(-6, 7)])
    qb = TruncatedSeries.from_coeffs(QQ, [F(-4, 5), F(1, 3), F(9, 2), F(-7, 6), F(3, 8), F(-2, 9), F(5, 4)])
    qu = log_circ(qa)
    gf13 = GF(13)
    ga = TruncatedSeries.from_coeffs(gf13, [5, 11, 2, 9, 4, 12, 7])
    gb = TruncatedSeries.from_coeffs(gf13, [8, 3, 10, 1, 6, 2, 11])
    flat4 = TruncatedSeries.from_coeffs(QQ, qa.coeffs[:4])
    lift = flat4.with_precision(7)
    s61 = GF(61).element(17)
    matrix, _ = cluster.builtin_pattern("A2")
    seed = cluster.YSeed(matrix, (TruncatedSeries.from_coeffs(QQ, [F(3, 5), F(-2, 7)]),
                                  TruncatedSeries.from_coeffs(QQ, [F(-4, 3), F(5, 2)])))
    x, y = QQ.element(F(3, 7)), QQ.element(F(-5, 2))
    g, h = gf13.element(5), gf13.element(11)
    us, ns = 1e6, 1e9
    return {
        "micro.series.mul.qq7_us": _per_call(lambda: qa * qb) * us,
        "micro.series.invert.qq7_us": _per_call(qa.invert) * us,
        "micro.series.log_circ.qq7_us": _per_call(lambda: log_circ(qa)) * us,
        "micro.series.exp_t.qq7_us": _per_call(lambda: exp_t(qu)) * us,
        "micro.series.mul.gf13_7_us": _per_call(lambda: ga * gb) * us,
        "micro.series.log_circ.gf13_7_us": _per_call(lambda: log_circ(ga)) * us,
        "micro.dilog.li_direct.4_7_us": _per_call(lambda: dilog.li_direct(4, 7, flat4)) * us,
        "micro.dilog.li_via_lift.4_7_us": _per_call(lambda: dilog.li_via_lift(4, 7, lift)) * us,
        "micro.dilog.pounds1.gf61_us": _per_call(lambda: dilog.pounds1(s61)) * us,
        "micro.cluster.YSeed.mutate.a2_n2_us": _per_call(lambda: seed.mutate(0)) * us,
        "micro.fields.mul.qq_ns": _per_call(lambda: x * y) * ns,
        "micro.fields.mul.gf13_ns": _per_call(lambda: g * h) * ns,
    }
