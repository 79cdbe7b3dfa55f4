"""Sweep the (eps, eta) plane and render the escaping/non-escaping region
diagram (CSV + SVG)."""

import argparse
import pathlib

from vortexlab import Potential, make_grid
from vortexlab.cli import _parse_range
from vortexlab.phase import sweep


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--N", type=int, default=3)
    ap.add_argument("--W", default="quadratic")
    ap.add_argument("--Wt", default="linear")
    ap.add_argument("--eps", default="0:0.5:25", metavar="LO:HI:COUNT")
    ap.add_argument("--eta", default="0:1.5:25", metavar="LO:HI:COUNT")
    ap.add_argument("--grid-n", type=int, default=1200)
    ap.add_argument("--confirm", type=float, default=0.1,
                    help="fraction of points cross-checked by the solver")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default="out/phase")
    args = ap.parse_args()

    eps, eta = _parse_range(args.eps), _parse_range(args.eta)
    grid = make_grid(args.N, args.grid_n, {"graded": 2.0})
    diagram = sweep(args.N, Potential.from_spec(args.W),
                    Potential.from_spec(args.Wt), (eps["lo"], eps["hi"]),
                    (eta["lo"], eta["hi"]), (eps["count"], eta["count"]),
                    confirm_fraction=args.confirm, grid=grid, seed=args.seed)

    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "phase.csv").write_text(diagram.to_csv())
    (out / "phase.svg").write_text(diagram.to_svg())

    counts = {}
    for row in diagram.points:
        for pt in row:
            counts[pt.cls] = counts.get(pt.cls, 0) + 1
    print(f"classes: {counts}")
    if diagram.eps0 is not None:
        print(f"eps0 (annotation) = {diagram.eps0:.6f}")
    print(f"wrote {out / 'phase.csv'} and {out / 'phase.svg'}")


if __name__ == "__main__":
    main()
