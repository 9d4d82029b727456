"""Sweep the optimizer over photon-number cutoffs and compare baselines.

Writes sweep.csv with one row per cutoff and, when matplotlib is around,
a comparison plot in sweep.png.  The same table is available from the
command line as:  phaseinfo sweep --n-max 8 --out sweep.csv

Run with:  python3 demos/optimal_states.py
"""

import numpy as np

import phaseinfo as pi

N_MAX = 8


def main():
    points = pi.bound_sweep(pi.OptimizerConfig(max_photon=N_MAX))

    print("%4s %14s %14s %14s" % ("N", "optimized", "sine window", "log(N+1)"))
    rows = []
    for n, point in enumerate(points):
        sine = pi.mutual_information_single(pi.sine_state(n)) if n > 0 else 0.0
        cap = np.log(n + 1)
        print("%4d %14.9f %14.9f %14.9f" % (n, point.information, sine, cap))
        rows.append((n, point.information, sine, cap))

    with open("sweep.csv", "w") as fh:
        fh.write("N,optimized_nats,sine_nats,log_dim\n")
        for n, opt, sine, cap in rows:
            fh.write("%d,%s,%s,%s\n" % (n, pi.format_float(opt),
                                        pi.format_float(sine), pi.format_float(cap)))
    print("wrote sweep.csv")

    # the optimized amplitude profile for the largest cutoff
    moduli = np.abs(points[-1].state.amplitudes)
    print("optimal |c_n| at N=%d: %s" % (N_MAX, " ".join("%.4f" % m for m in moduli)))

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    ns = [r[0] for r in rows]
    fig, ax = plt.subplots(figsize=(5, 3.4))
    ax.plot(ns, [r[1] for r in rows], "o-", label="optimized")
    ax.plot(ns, [r[2] for r in rows], "s--", label="sine window")
    ax.plot(ns, [r[3] for r in rows], ":", c="gray", label="log(N+1)")
    ax.set_xlabel("photon number cutoff N")
    ax.set_ylabel("information [nats]")
    ax.legend()
    fig.tight_layout()
    fig.savefig("sweep.png", dpi=120)
    print("wrote sweep.png")


if __name__ == "__main__":
    main()
