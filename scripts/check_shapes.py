#!/usr/bin/env python3
"""Validates the paper's shape claims against freshly generated results/.

Each check mirrors a claim recorded in EXPERIMENTS.md; run after
scripts/run_all_figures.sh.  Exits non-zero if any claim fails, so this
doubles as a coarse regression gate for the whole reproduction.

Usage: check_shapes.py [RESULTS_DIR]
RESULTS_DIR holds the bench_*.txt outputs; it defaults to the repository's
results/ directory.

Only the Python standard library is used.
"""
import csv
import io
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / "results"

failures = []


def check(name: str, ok: bool, detail: str = "") -> None:
    status = "ok  " if ok else "FAIL"
    print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
    if not ok:
        failures.append(name)


def load(bench: str):
    """Parses the CSV block(s) of a bench output; returns list of dict rows."""
    path = RESULTS / f"{bench}.txt"
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("="):
            header = None
            continue
        cells = line.split(",")
        if header is None:
            # A header line has no parseable first number.
            try:
                float(cells[0])
            except ValueError:
                header = cells
                continue
        if header and len(cells) == len(header):
            rows.append(dict(zip(header, cells)))
    return rows


def series(rows, scheme, x, y, scheme_key="scheme"):
    return {float(r[x]): float(r[y]) for r in rows if r.get(scheme_key) == scheme}


def main() -> int:
    # ---- Figure 1: managed < unmanaged throughput; both rise with B.
    r = load("bench_fig1_throughput")
    fifo_thr = series(r, "fifo+thresholds", "buffer_mb", "throughput_mbps")
    no_bm = series(r, "fifo+no-bm", "buffer_mb", "throughput_mbps")
    check("fig1: no-BM >= managed at every buffer",
          all(no_bm[b] >= fifo_thr[b] for b in fifo_thr))
    check("fig1: no-BM ~90%+ at 0.5 MB", no_bm[0.5] >= 0.9 * 48)
    check("fig1: managed throughput increases with buffer",
          fifo_thr[5.0] > fifo_thr[0.5])

    # ---- Figure 2: no-BM FIFO == no-BM WFQ; crossovers.
    r = load("bench_fig2_conformant_loss")
    fifo_no = series(r, "fifo+no-bm", "buffer_mb", "loss_ratio")
    wfq_no = series(r, "wfq+no-bm", "buffer_mb", "loss_ratio")
    check("fig2: FIFO and WFQ identical without BM",
          all(abs(fifo_no[b] - wfq_no[b]) < 1e-12 for b in fifo_no))
    wfq_thr = series(r, "wfq+thresholds", "buffer_mb", "loss_ratio")
    fifo_thr2 = series(r, "fifo+thresholds", "buffer_mb", "loss_ratio")
    check("fig2: WFQ+thr lossless by 0.3 MB", wfq_thr[0.3] < 1e-6)
    check("fig2: FIFO+thr lossless by 0.5 MB", fifo_thr2[0.5] < 1e-6)
    check("fig2: no-BM loss persists at 3 MB", fifo_no[3.0] > 0.01)
    check("fig2: WFQ+thr needs less buffer than FIFO+thr",
          wfq_thr[0.2] <= fifo_thr2[0.2])

    # ---- Figures 4/5: sharing >= thresholds throughput at big B; protection kept.
    r4 = load("bench_fig4_sharing_throughput")
    sharing = series(r4, "fifo+sharing", "buffer_mb", "throughput_mbps")
    check("fig4: sharing beats thresholds for B > H",
          sharing[3.0] > fifo_thr[3.0] and sharing[5.0] > fifo_thr[5.0])
    r5 = load("bench_fig5_sharing_loss")
    sharing_loss = series(r5, "fifo+sharing", "buffer_mb", "loss_ratio")
    check("fig5: sharing lossless by 0.5 MB", sharing_loss[0.5] < 1e-6)

    # ---- Figures 8/11: hybrid tracks per-flow WFQ+sharing closely and is
    # never meaningfully *below* it (it may be a little above: its
    # per-queue buffers isolate the conformant queues).
    for bench, fig in [("bench_fig8_hybrid1_throughput", "fig8"),
                       ("bench_fig11_hybrid2_throughput", "fig11")]:
        rows = load(bench)
        hybrid = series(rows, "hybrid+sharing", "buffer_mb", "throughput_mbps")
        wfq = series(rows, "wfq+sharing", "buffer_mb", "throughput_mbps")
        gap = max(abs(hybrid[b] - wfq[b]) / wfq[b] for b in hybrid)
        check(f"{fig}: hybrid within 5% of WFQ+sharing", gap < 0.05,
              f"max gap {gap:.2%}")

    # ---- Figure 9: hybrid protects conformant flows by 0.5 MB.
    rows = load("bench_fig9_hybrid1_loss")
    hybrid_loss = series(rows, "hybrid+sharing", "buffer_mb", "loss_ratio")
    check("fig9: hybrid lossless by 0.5 MB", hybrid_loss[0.5] < 1e-6)

    # ---- Figure 7: at the stressed buffer, loss falls as headroom grows.
    rows = load("bench_fig7_headroom")
    stressed = [(float(r["headroom_kb"]), float(r["loss_ratio"])) for r in rows
                if r["scheme"] == "fifo+sharing" and float(r["buffer_mb"]) == 0.3]
    stressed.sort()
    check("fig7: conformant loss non-increasing in H (stressed series)",
          all(stressed[i + 1][1] <= stressed[i][1] + 1e-4
              for i in range(len(stressed) - 1)),
          f"{stressed[0][1]:.4f} -> {stressed[-1][1]:.4f}")

    # ---- Hybrid savings: Prop 3 saves, rate-proportional saves nothing.
    rows = load("bench_hybrid_savings")
    by_alloc = {r["allocation"]: float(r["savings_vs_fifo_kb"]) for r in rows
                if "allocation" in r}
    check("prop3: optimal alphas save buffer", by_alloc["hybrid-prop3-alpha"] > 0)
    check("prop3: rate-proportional alphas save nothing",
          abs(by_alloc["hybrid-rate-proportional-alpha"]) < 1e-6)

    # ---- Robustness: managed schemes lossless under every burst law.
    rows = load("bench_robustness")
    managed = [r for r in rows if r["scheme"] in ("fifo+thresholds", "fifo+sharing")]
    check("robustness: managed schemes lossless under all burst laws",
          all(float(r["conformant_loss"]) < 1e-6 for r in managed))
    # Heavy tails hurt the unmanaged queue at every buffer size.
    unmanaged = [r for r in rows if r["scheme"] == "fifo+no-bm"]
    buffers = {float(r["buffer_mb"]) for r in unmanaged}
    heavier = all(
        next(float(r["conformant_loss"]) for r in unmanaged
             if float(r["buffer_mb"]) == b and r["burst_law"] == "pareto1.5") >
        next(float(r["conformant_loss"]) for r in unmanaged
             if float(r["buffer_mb"]) == b and r["burst_law"] == "exponential")
        for b in buffers)
    check("robustness: heavy-tailed bursts hurt no-BM more than exponential",
          heavier)

    # ---- AQM ablation: only reservation-aware schemes reach zero loss.
    rows = load("bench_aqm_comparison")
    at_1mb = {r["scheme"]: float(r["conformant_loss"]) for r in rows
              if float(r["buffer_mb"]) == 1.0}
    check("aqm: thresholds/sharing/selective lossless",
          all(at_1mb[s] < 1e-6 for s in ("thresholds(paper)", "sharing(paper)",
                                          "selective-sharing")))
    check("aqm: red/tail-drop lose conformant traffic",
          at_1mb["red"] > 0.01 and at_1mb["tail-drop"] > 0.01)

    # ---- Adaptive flows: selective sharing best for AIMD traffic.
    rows = load("bench_adaptive_flows")
    at_05 = {r["manager"]: float(r["adaptive_mbps"]) for r in rows
             if float(r["buffer_mb"]) == 0.5}
    check("adaptive: reservation-aware schemes beat RED/tail-drop 5x+",
          at_05["thresholds"] > 5 * at_05["tail-drop"] and
          at_05["selective"] >= at_05["sharing"] - 1.0)

    print()
    if failures:
        print(f"{len(failures)} shape check(s) FAILED")
        return 1
    print("all shape checks passed")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 2:
        print(f"usage: {sys.argv[0]} [RESULTS_DIR]", file=sys.stderr)
        sys.exit(2)
    if len(sys.argv) == 2:
        RESULTS = Path(sys.argv[1])
        if not RESULTS.is_dir():
            print(f"error: {RESULTS} is not a directory", file=sys.stderr)
            sys.exit(2)
    sys.exit(main())
