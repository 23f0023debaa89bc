"""Command-line surface.

Subcommands cover the whole refinement loop:

    init      spec file -> fresh session
    observe   session + CSV -> updated session
    refine    session + search flags -> searched session, report on stdout
    arcs      session -> arc posterior table (or DOT)
    smooth    session + seed -> smoothed network file (or DOT)
    map       session -> best single network file
    generate  network file + n + seed -> CSV
    loglik    network file + CSV -> total log likelihood
    oracle    spec + CSV -> exact arc posteriors (small problems only)

Exit codes: 0 success, 1 domain/data errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import engine, fileio, query
from .dotexport import DISPLAY_THRESHOLD, export_dot
from .sampling import forward_sample


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    defaults = engine.SearchParams()  # the library's defaults are the flags' defaults
    parser.add_argument("--c-alive", type=float, default=defaults.c_alive)
    parser.add_argument("--d-open", type=float, default=defaults.d_open)
    parser.add_argument("--e-dead", type=float, default=defaults.e_dead)
    parser.add_argument("--kappa", type=float, default=defaults.dead_kappa)
    parser.add_argument("--budget", type=int, default=defaults.budget)
    parser.add_argument(
        "--model", choices=engine.SCORING_MODELS, default=None,
        help="marginal-likelihood model used to score parent sets",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnrefine",
        description="incremental Bayesian-network structure refinement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a session from a network spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--default-prior", type=float, default=None)

    p = sub.add_parser("observe", help="absorb a CSV dataset into a session")
    p.add_argument("--session", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="defaults to rewriting --session")

    p = sub.add_parser("refine", help="run the any-time structure search")
    p.add_argument("--session", required=True)
    p.add_argument("--out", default=None, help="defaults to rewriting --session")
    _add_search_flags(p)

    p = sub.add_parser("arcs", help="print arc posteriors (optionally as DOT)")
    p.add_argument("--session", required=True)
    p.add_argument("--dot", default=None, help="write a DOT digraph to this path")
    p.add_argument("--grey-mapping", choices=("linear", "log"), default="linear")
    p.add_argument("--threshold", type=float, default=DISPLAY_THRESHOLD)

    p = sub.add_parser("smooth", help="sample one smoothed representative network")
    p.add_argument("--session", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--dot", default=None)
    p.add_argument("--grey-mapping", choices=("linear", "log"), default="linear")

    p = sub.add_parser("map", help="export the best single network")
    p.add_argument("--session", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("generate", help="forward-sample a CSV dataset from a network")
    p.add_argument("--network", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("loglik", help="total log likelihood of a CSV under a network")
    p.add_argument("--network", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("oracle", help="exact arc posteriors by enumeration (small inputs)")
    p.add_argument("--spec", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--default-prior", type=float, default=None)

    return parser


def _load_overridden_spec(path: str, alpha, default_prior):
    schema, priors, config = fileio.load_spec(path)
    if alpha is not None:
        config = type(config)(alpha=alpha)
    if default_prior is not None:
        priors = type(priors)(entries=priors.entries, default_prior=default_prior)
    return schema, priors, config


def _print_arc_table(rows, out) -> None:
    for y_name, x_name, p in rows:
        print(f"{y_name} -> {x_name}  {p:.6f}", file=out)


def _run(args: argparse.Namespace, out) -> int:
    if args.command == "init":
        schema, priors, config = _load_overridden_spec(args.spec, args.alpha, args.default_prior)
        fileio.save_session(args.out, engine.init(schema, priors, config))
        print(f"initialized session with {len(schema)} variables", file=out)
        return 0

    if args.command == "observe":
        net = fileio.load_session(args.session)
        examples = fileio.load_csv(args.data, net.schema)
        engine.observe_batch(net, examples)
        fileio.save_session(args.out or args.session, net)
        print(f"absorbed {len(examples)} examples ({net.n_total} total)", file=out)
        return 0

    if args.command == "refine":
        net = fileio.load_session(args.session)
        if args.model is not None:
            net.scoring_model = args.model
        params = engine.SearchParams(
            c_alive=args.c_alive,
            d_open=args.d_open,
            e_dead=args.e_dead,
            dead_kappa=args.kappa,
            budget=args.budget,
        )
        report = engine.refine(net, params)
        fileio.save_session(args.out or args.session, net)
        stats = engine.network_stats(net)
        state = "complete" if report.exhausted else "budget exhausted"
        print(
            f"search {state}: {report.expansions} expansions, "
            f"{report.nodes_created} nodes created, {report.nodes_killed} killed, "
            f"{stats.total_stored} stored",
            file=out,
        )
        return 0

    if args.command == "arcs":
        net = fileio.load_session(args.session)
        matrix = query.all_arc_posteriors(net)
        dot = export_dot(matrix, args.grey_mapping, args.threshold) if args.dot else None
        _print_arc_table(matrix.named_entries(), out)
        if dot is not None:
            fileio._atomic_write(args.dot, dot)
        return 0

    if args.command == "smooth":
        net = fileio.load_session(args.session)
        smoothed = query.sample_smoothed(net, args.seed)
        if args.out:
            fileio.save_smoothed(args.out, smoothed)
        if args.dot:
            fileio._atomic_write(args.dot, export_dot(smoothed, args.grey_mapping))
        if not args.out and not args.dot:
            for x, var in enumerate(smoothed.variables):
                names = ", ".join(net.schema.name(p) for p in var.leaf)
                print(f"{net.schema.name(x)}: parents [{names}] mass {var.mass:.4f}", file=out)
        return 0

    if args.command == "map":
        net = fileio.load_session(args.session)
        fileio.save_network(args.out, engine.best_network(net))
        print(f"wrote best network to {args.out}", file=out)
        return 0

    if args.command == "generate":
        network = fileio.load_network(args.network)
        examples = forward_sample(network, args.n, args.seed)
        fileio.write_csv(args.out, examples, network.schema)
        print(f"wrote {len(examples)} examples to {args.out}", file=out)
        return 0

    if args.command == "loglik":
        network = fileio.load_network(args.network)
        examples = fileio.load_csv(args.data, network.schema)
        print(f"{query.loglik_dataset(network, examples):.10g}", file=out)
        return 0

    if args.command == "oracle":
        from .oracle import exhaustive_posterior

        schema, priors, config = _load_overridden_spec(args.spec, args.alpha, args.default_prior)
        examples = fileio.load_csv(args.data, schema)
        rows = []
        for x in range(len(schema)):
            exact = exhaustive_posterior(x, examples, priors, config, schema)
            for y in schema.predecessors(x):
                p = priors.prior(y, x)
                value = 1.0 if p == 1.0 else 0.0 if p == 0.0 else exact.arc_mass(y)
                rows.append((schema.name(y), schema.name(x), value))
        _print_arc_table(rows, out)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def cli_dispatch(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:  # argparse prints help and usage errors to the process's streams
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    try:
        return _run(args, out)
    except (ValueError, RuntimeError, OSError) as error:
        print(f"error: {error}", file=err)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
