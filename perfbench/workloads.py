"""The four workloads: inputs from the seed, the timed jobs, and their gates.

A workload's ``build(seed, smoke, workdir)`` is its set-up: it turns the
seed into the inputs the program receives (library objects, or chain files
for the CLI).  ``jobs(inputs)`` lists the timed calls of one pass.  Each job
has a ``check`` that compares its output with an independent route (see
:mod:`oracles`) and a ``canon`` that renders the exact output as text for
the per-workload digest.  Checks run outside the timed region.

``smoke=True`` shrinks every size so a run takes about a second.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import inputs
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_ENTRY = os.path.join(HERE, "cli_entry.py")

# per-identity case counts of run_identity_suite(i_max=12) with the default
# k set and order: 50 identities, 119665 cases
BATTERY_CASES = {
    "a6": 117, "a7": 117, "a8": 1521, "a10": 1521, "a11": 1521, "a12": 1521,
    "a12a": 1521, "a12b": 1521, "a13": 702, "a14": 117, "a15": 117, "a16": 169,
    "a17": 47385, "a18": 3276, "a19": 1521, "a20": 1521, "a21": 13689,
    "a23": 1404, "a24": 1521, "a25": 144, "a26": 117, "a27": 117, "a28": 13,
    "a29": 819, "a29a": 819, "a30": 10647, "a31": 10647, "a32": 91, "a33": 156,
    "a34": 1183, "a36": 90, "a37": 216, "a38": 171, "k_i": 72, "k_i_l": 288,
    "n1": 1521, "n2": 42, "n3": 1521, "n30": 1690, "nonneg": 455, "comb": 288,
    "sn2_k0": 66, "a46": 5346, "a46_matrix": 9, "ogf": 702, "egf": 546,
    "a41": 216, "a42": 405, "bgf": 243, "a44": 243,
}
SMOKE_IDENTITIES = ("a6", "a7", "a13", "a14", "n2", "a28")

# the identity-suite call of the cli workload and its case count
CLI_SUITE_ARGS = ["identity-suite", "--imax", "8", "--order", "8", "--kset", "1", "--format", "json"]
CLI_SUITE_CASES = 7531


def _msnlib():
    import msnlib

    return msnlib


@dataclass
class Job:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    canon: Callable[[Any], str] = str
    argv: list[str] | None = None  # CLI jobs: the arguments, for traced runs


@dataclass
class CliOutput:
    code: int
    out: str
    maxrss_kb: int

    def __str__(self):
        return f"exit {self.code}\n{self.out}"


@dataclass
class Workload:
    build: Callable[[int, bool, str], Any]
    jobs: Callable[[Any], list]
    min_passes: int
    subprocess_jobs: bool = False
    # battery times its identities inside one library call
    run_pass: Callable[[Any, Callable[[], None]], list] | None = field(default=None)


def exact_text(value) -> str:
    """An exact output (rational, matrix, or list of them) as text."""
    if isinstance(value, list):
        return "\n".join(exact_text(v) for v in value)
    if hasattr(value, "entries"):
        return "\n".join(" ".join(str(v) for v in row) for row in value.entries)
    return str(value)


# ----------------------------------------------------------------- battery


def build_battery(seed: int, smoke: bool, workdir: str):
    """The battery has no generated inputs: its k set and order are the
    library defaults, so the seed changes nothing."""
    _msnlib()
    return {"labels": SMOKE_IDENTITIES if smoke else None}


def run_battery_pass(inp, probe) -> list:
    """One run_identity_suite(i_max=12) call, timed per identity; returns
    (job, start, seconds, output, error) per identity.

    The registered checks are wrapped for the duration of the call: the
    wrapper calls `probe` (a host-speed probe) and reads the clock twice
    per identity.
    """
    identities = _msnlib().identities
    checks = identities.IDENTITY_CHECKS
    original = list(checks)
    times = {}

    def timed(label, fn):
        def run(ctx):
            probe()
            t0 = time.perf_counter()
            try:
                return fn(ctx)
            finally:
                times[label] = (t0, time.perf_counter() - t0)

        return run

    checks[:] = [(label, timed(label, fn)) for label, fn in original]
    try:
        results = identities.run_identity_suite(i_max=12, labels=inp["labels"])
    finally:
        checks[:] = original
    by_label = {r.label: r for r in results}
    return [
        (Job(label, None, check_identity, identity_canon), *times.get(label, (0.0, 0.0)), by_label.get(label), None)
        for label in inp["labels"] or BATTERY_CASES
    ]


def check_identity(result) -> str | None:
    if result is None:
        return "identity missing from the battery"
    if not result.ok:
        return f"FAIL: {result.detail}"
    want = BATTERY_CASES[result.label]
    return None if result.cases == want else f"{result.cases} cases, expected {want}"


def identity_canon(result) -> str:
    return f"{result.label} ok={result.ok} cases={result.cases}"


# ------------------------------------------------------------------ chains


def build_chains(seed: int, smoke: bool, workdir: str):
    """Dense chains of 8, 16 and 24 states (ten, three and one of them),
    partitioned by the first half of the states.  The largest has 24
    states, not 32: the three jobs of a 32-state chain take about 4.3 s,
    so a 35-second run would time each of them only about five times."""
    msnlib = _msnlib()
    rng = random.Random(seed)
    sizes = (4, 4, 6) if smoke else (8,) * 10 + (16,) * 3 + (24,)
    out = []
    for size in sizes:
        rows = inputs.dense_matrix(rng, size)
        m = list(range(1, size // 2 + 1))
        out.append((rows, m, msnlib.partition(msnlib.RationalMatrix(rows), m)))
    return {"chains": out, "k": 2 if smoke else 3, "m": 2 if smoke else 4}


def chain_jobs(inp) -> list:
    """Three jobs per chain."""
    msnlib = _msnlib()
    k, m = inp["k"], inp["m"]
    jobs = []
    for idx, (rows, m_idx, chain) in enumerate(inp["chains"]):
        size = len(rows)
        m0 = [i - 1 for i in m_idx]
        n0 = [i for i in range(size) if i not in m0]
        tag = f"{size}s#{idx}"
        for var, target in (("N", n0), ("R", m0)):
            jobs.append(
                Job(
                    f"convolved {var} {tag}",
                    lambda chain=chain, var=var: msnlib.moment_k_convolved(chain, var, k, m),
                    lambda out, rows=rows, m0=m0, target=target: oracles.float_mismatch(
                        out.entries, oracles.passage_moments_float(rows, m0, target, k, m)[m]
                    ),
                    exact_text,
                )
            )
        jobs.append(
            Job(
                f"is_commutable {tag}",
                lambda chain=chain: msnlib.is_commutable(chain, "M"),
                lambda out, rows=rows, m0=m0: None
                if out == oracles.commutes_float(rows, m0, "M")
                else f"is_commutable gave {out}",
            )
        )
    return jobs


# ------------------------------------------------------------ closed-forms


def build_closed_forms(seed: int, smoke: bool, workdir: str):
    """Chains of 3 to 8 states that meet each closed form's hypothesis, the
    two-state laws, and two specs of every distribution type.  Sizes, k and
    m are fixed; the seed draws the probabilities."""
    msnlib = _msnlib()
    rng = random.Random(seed)

    def chain(rows, m):
        return msnlib.partition(msnlib.RationalMatrix(rows), m)

    # (|M|, |N|, k, m) of the commutable chains, (size, k, m) of the rest
    matrix_slots = [(1, 1, 2, 2)] if smoke else [(2, 2, 2, 6), (2, 3, 3, 4), (3, 3, 2, 6), (4, 4, 3, 4)]
    sequence_slots = [(2, 2, 3)] if smoke else [(2, 3, 10), (3, 3, 12), (4, 2, 14), (2, 4, 8)]
    cases = []
    for m_size, n_size, k, m in matrix_slots:
        c = chain(inputs.scalar_block_matrix(rng, m_size, n_size), list(range(1, m_size + 1)))
        cases += [("nk_commutable", c, k, m), ("rk_commutable", c, k, m)]
    for size, k, m in sequence_slots:
        m_set = list(range(1, size + 1))
        cases += [
            ("rk_scalar", chain(inputs.scalar_m_matrix(rng, size), [1]), k, m),
            ("renewal", chain(inputs.single_n_matrix(rng, size, True), m_set), k, m),
            ("nk_rowsum", chain(inputs.single_n_matrix(rng, size, False), m_set), k, m),
            ("nb", (inputs.probability(rng, 7),), k, m),
            ("anb", (inputs.probability(rng, 7), inputs.probability(rng, 5)), k, m),
        ]
    specs = []
    for m in (3,) if smoke else (12, 16):
        for spec in inputs.distribution_specs(rng):
            specs.append((spec, msnlib.distributions.spec_from_dict(spec), m))
    return {"cases": cases, "specs": specs}


_CLOSED = {
    # kind: (library function, convolved variable of the oracle, 1x1 result)
    "nk_commutable": ("moment_nk_commutable", "N", False),
    "rk_commutable": ("moment_rk_commutable", "R", False),
    "rk_scalar": ("moment_rk_scalar", "R", True),
    "renewal": ("moment_renewal", "Rbar", True),
    "nk_rowsum": ("moment_nk_rowsum", "N", False),
}


def closed_form_jobs(inp) -> list:
    """The matrix closed forms give one moment per job; the scalar forms and
    the distributions give the moments of orders 0..m, as ``dist --m``
    does."""
    msnlib = _msnlib()
    jobs = []
    for idx, (kind, arg, k, m) in enumerate(inp["cases"]):
        name = f"{kind}#{idx} k={k} m={m}"
        if kind in ("nk_commutable", "rk_commutable"):
            fn_name, var, _ = _CLOSED[kind]
            jobs.append(
                Job(
                    name,
                    lambda fn=getattr(msnlib, fn_name), c=arg, k=k, m=m: fn(c, k, m),
                    _equals(lambda c=arg, var=var, k=k, m=m: msnlib.moment_k_convolved(c, var, k, m)),
                    exact_text,
                )
            )
            continue
        if kind in _CLOSED:
            fn_name, var, scalar = _CLOSED[kind]
            fn = getattr(msnlib, fn_name)
            args = (arg,)

            def oracle(j, var=var, scalar=scalar, c=arg, k=k):
                value = msnlib.moment_k_convolved(c, var, k, j)
                return value[0, 0] if scalar else value

        else:
            fn = msnlib.moment_nb if kind == "nb" else msnlib.moment_anb
            spec = {"type": "negbinomial" if kind == "nb" else "altnegbinomial", "p": str(arg[0]), "k": k}
            if kind == "anb":
                spec["q"] = str(arg[1])
            args = arg

            def oracle(j, spec=spec):
                return oracles.raw_moment(spec, j, msnlib)

        jobs.append(
            Job(
                name,
                lambda fn=fn, args=args, k=k, m=m: [fn(*args, k, j) for j in range(m + 1)],
                _equals(lambda oracle=oracle, m=m: [oracle(j) for j in range(m + 1)]),
                exact_text,
            )
        )
    for idx, (spec, dist, m) in enumerate(inp["specs"]):
        tag = f"{spec['type']}#{idx} m={m}"
        jobs.append(
            Job(
                f"raw_moment {tag}",
                lambda d=dist, m=m: [msnlib.raw_moment(d, j) for j in range(m + 1)],
                _equals(lambda s=spec, m=m: [oracles.raw_moment(s, j, msnlib) for j in range(m + 1)]),
                exact_text,
            )
        )
        jobs.append(
            Job(
                f"central_closed {tag}",
                lambda d=dist, m=m: [msnlib.central_closed(d, j) for j in range(m + 1)],
                _equals(lambda d=dist, m=m: msnlib.central_from_raw(msnlib.raw_moments(d, m))),
                exact_text,
            )
        )
    return jobs


def _equals(oracle):
    def check(out):
        want = oracle()
        return None if out == want else f"got {exact_text(out)[:80]!r}, expected {exact_text(want)[:80]!r}"

    return check


# --------------------------------------------------------------------- cli


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], workdir: str, trace_out: str | None = None) -> CliOutput:
    """One CLI call in a fresh interpreter; returns its exit code, stdout
    and peak resident memory (from wait4, so only this child counts)."""
    cmd = [sys.executable, CLI_ENTRY]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    out_path = os.path.join(workdir, "stdout.txt")
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        proc = subprocess.Popen(cmd + argv, stdout=out, stderr=err, env=child_env(), cwd=workdir)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        # JSON envelopes echo the chain file's path, which names this run
        text = fh.read().rstrip("\n").replace(workdir, "$WORKDIR")
    return CliOutput(proc.returncode, text, usage.ru_maxrss)


def build_cli(seed: int, smoke: bool, workdir: str):
    """Chain files and argument lists for a seeded mix of all nine
    subcommands, including two error paths with documented exit codes.
    A call is named "<kind>#<n>"; the kind selects its check."""
    rng = random.Random(seed)
    chains = {
        "comm": (inputs.scalar_block_matrix(rng, 2, 3), [1, 2]),
        "dense": (inputs.dense_matrix(rng, 4), [1, 2]),
        "sim": (inputs.fixed_exit_matrix(rng, 1, 2, 3, 7), [1]),
    }
    files = {}
    for name, (rows, m) in chains.items():
        files[name] = os.path.join(workdir, f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(inputs.chain_json(rows, m), fh)

    def rat():
        return str(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5])))

    specs = {spec["type"]: spec for spec in inputs.distribution_specs(rng)}
    json_format = ["--format", "json"]
    calls = []
    for n in range(3):
        i = 8 + n
        calls.append(("msn", ["msn", str(i), str(rng.randint(0, i)), rat()] + (json_format if n % 2 else []), 0))
    for n in range(2):
        i = 8 + n
        calls.append(("msn1", ["msn1", str(i), str(rng.randint(0, i)), rat()], 0))
    for fmt in ("text", "csv", "json"):
        calls.append(("table", ["table", "8", rat(), "--format", fmt], 0))
    calls += [
        ("invcheck", ["invcheck", "9", rat(), rat()], 0),
        ("gf-check", ["gf-check", "--which", "ogf", "--jmax", "3", "--kset", f"{rat()},{rat()}", "--order", "8"], 0),
        ("gf-check", ["gf-check", "--which", "all", "--jmax", "3", "--kset", f"{rat()},{rat()}", "--order", "8"], 0),
    ]
    markov = [
        ("comm", "N", 2, "convolved"),
        ("comm", "Rbar", 2, "convolved"),
        ("comm", "R", 2, "commutable"),
        ("dense", "Nbar", 1, "closed"),
        ("dense", "R", 1, "closed"),
        ("dense", "N", 1, "recursive"),
    ]
    for key, var, k, method in markov:
        calls.append((f"markov-{method}", ["markov", "--chain", files[key], "--var", var, "--k", str(k), "--m", "4", "--method", method], 0))
    for kind, central in (("binomial", False), ("altnegbinomial", True), ("phasetype", False), ("phasetype", True)):
        tail = ["--central"] if central else []
        calls.append((f"dist-{'central' if central else 'raw'}", ["dist", "--spec", json.dumps(specs[kind]), "--m", "8"] + tail, 0))
    reps = "20000" if smoke else "200000"
    calls += [
        ("simulate", ["simulate", "--chain", files["sim"], "--var", "N", "--k", "2", "--reps", reps, "--seed", str(rng.randint(0, 2**31))] + json_format, 0),
        ("decimal-rational", ["msn", "3", "2", "0.5"], 2),
        ("not-commutable", ["markov", "--chain", files["dense"], "--var", "N", "--k", "2", "--m", "2", "--method", "commutable"], 3),
    ]
    if not smoke:
        calls.append(("identity-suite", CLI_SUITE_ARGS, 0))
    if smoke:
        calls = calls[::3]
    calls = [(f"{kind}#{n}", argv, code) for n, (kind, argv, code) in enumerate(calls)]
    # known defects: each should pass or fail with a named error, and does not
    known = [
        ("identity-suite --imax 4", ["identity-suite", "--imax", "4"], (0,)),
        ("binomial spec without n", ["dist", "--spec", '{"type":"binomial","p":"1/3"}', "--m", "2"], (2, 3)),
        ("missing chain file", ["markov", "--chain", os.path.join(workdir, "missing.json"), "--var", "N", "--k", "1", "--m", "1"], (2, 3)),
    ]
    return {"calls": calls, "known": known, "chains": chains, "workdir": workdir}


def cli_jobs(inp) -> list:
    workdir = inp["workdir"]
    jobs = []
    for name, argv, code in inp["calls"]:
        expect = _cli_expectation(name.split("#")[0], argv, inp)
        jobs.append(
            Job(
                name,
                lambda argv=argv: run_cli(argv, workdir),
                lambda out, code=code, expect=expect: _check_cli(out, code, expect),
                argv=argv,
            )
        )
    return jobs


def _check_cli(out: CliOutput, code: int, expect) -> str | None:
    if out.code != code:
        return f"exit {out.code}, expected {code}"
    if expect is None:
        return None
    return expect(out.out)


def _cli_expectation(kind: str, argv: list[str], inp):
    """A check of the stdout of one call, by an independent route."""
    msnlib = _msnlib()
    fmt = msnlib.format_rational

    def exactly(make):
        def check(text):
            want = make()
            return None if text == want else f"stdout {text[:80]!r}, expected {want[:80]!r}"

        return check

    def option(flag):
        return argv[argv.index(flag) + 1]

    def matrix_lines(matrix):
        return "\n".join(" ".join(fmt(v) for v in row) for row in matrix.entries)

    if kind == "msn":
        i, j, k = int(argv[1]), int(argv[2]), Fraction(argv[3])
        if "--format" not in argv:
            return exactly(lambda: fmt(msnlib.msn_table(i, k).value(i, j)))

        def check(text):
            doc = json.loads(text)
            want = fmt(msnlib.msn_table(i, k).value(i, j))
            ok = doc["result"]["value"] == want and doc["status"]["code"] == "ok"
            return None if ok else f"envelope {text[:80]!r}, expected value {want}"

        return check
    if kind == "msn1":
        i, j, k = int(argv[1]), int(argv[2]), Fraction(argv[3])
        return exactly(lambda: fmt(oracles.c_value(i, j, k)))
    if kind == "table":
        i_max, k, style = int(argv[1]), Fraction(argv[2]), option("--format")

        def rows():
            return [[fmt(msnlib.msn_direct(i, j, k)) for j in range(i + 1)] for i in range(i_max + 1)]

        if style == "json":

            def check(text):
                return None if json.loads(text)["result"]["rows"] == rows() else "table rows differ"

            return check
        if style == "csv":
            header = "i," + ",".join(f"j{j}" for j in range(i_max + 1))
            return exactly(lambda: "\n".join([header] + [",".join([str(i)] + r) for i, r in enumerate(rows())]))
        return exactly(lambda: "\n".join(f"i={i}: " + " ".join(r) for i, r in enumerate(rows())))
    if kind == "invcheck":
        i_max, k1, k2 = int(argv[1]), Fraction(argv[2]), Fraction(argv[3])

        def product():
            n = i_max + 1
            rows = [
                [fmt(Fraction(msnlib.binom(i, j)) * (k1 - k2) ** (i - j) if i >= j else Fraction(0)) for j in range(n)]
                for i in range(n)
            ]
            return "\n".join(" ".join(r) for r in rows) + "\nPASS"

        return exactly(product)
    if kind == "gf-check":
        kset = tuple(Fraction(v) for v in option("--kset").split(","))
        which = option("--which")

        def verdicts():
            ident = msnlib.identities
            ctx = ident.Context(i_max=8, k_set=kset, order=8)
            ints = [int(k) for k in kset if k.denominator == 1]
            counts = [("ogf", ident.check_ogf(ctx, j_max=3, k_set=kset, order=8))]
            if which == "all":
                counts.append(("egf", ident.check_egf(ctx, j_max=3, k_range=ints, order=8)))
                counts.append(("bgf", ident.check_bgf(ctx, i_max=8, k_set=kset)))
            return "\n".join(f"{w}: PASS ({c} cases)" for w, c in counts)

        return exactly(verdicts)
    if kind == "identity-suite":

        def check(text):
            doc = json.loads(text)["result"]
            cases = sum(r["cases"] for r in doc["identities"])
            ok = doc["all_pass"] and cases == CLI_SUITE_CASES and len(doc["identities"]) == len(BATTERY_CASES)
            return None if ok else f"all_pass={doc['all_pass']}, {cases} cases, expected {CLI_SUITE_CASES}"

        return check
    if kind.startswith("markov-"):
        method = kind.split("-", 1)[1]
        var, k, m = option("--var"), int(option("--k")), int(option("--m"))
        key = "comm" if method in ("convolved", "commutable") else "dense"

        def oracle():
            rows, m_set = inp["chains"][key]
            chain = msnlib.partition(msnlib.RationalMatrix(rows), m_set)
            base = var.replace("bar", "")
            target = chain.swapped() if var.endswith("bar") else chain
            if method == "convolved":
                fn = msnlib.moment_nk_commutable if base == "N" else msnlib.moment_rk_commutable
                return fn(target, k, m)
            if method == "commutable":
                return msnlib.moment_k_convolved(chain, var, k, m)
            if method == "closed":
                return msnlib.moment_recursive(chain, f"{var}1", m)
            return (msnlib.moment_n1_closed if base == "N" else msnlib.moment_r1_closed)(target, m)

        return exactly(lambda: matrix_lines(oracle()))
    if kind.startswith("dist-"):
        spec, m = json.loads(option("--spec")), int(option("--m"))

        def values():
            raw = [oracles.raw_moment(spec, j, msnlib) for j in range(m + 1)]
            if kind == "dist-central":
                raw = msnlib.central_from_raw(raw)
            return "\n".join(f"m={j}: {fmt(v)}" for j, v in enumerate(raw))

        return exactly(values)
    if kind == "simulate":
        return _simulate_check(argv, inp)
    return None


def _simulate_check(argv, inp):
    """Bit-identical to an in-process run with the same seed, and each
    estimate within 5 standard errors of the exact moment."""
    msnlib = _msnlib()
    rows, m = inp["chains"]["sim"]
    k, reps, seed = (int(argv[argv.index(flag) + 1]) for flag in ("--k", "--reps", "--seed"))

    def check(text):
        chain = msnlib.partition(msnlib.RationalMatrix(rows), m)
        got = json.loads(text)["result"]["estimates"]
        mine = msnlib.simulate(msnlib.SimConfig(chain=chain, variable="N", k=k, replications=reps, seed=seed))
        for est, ref in zip(got, mine.estimates):
            if (est["mean"], est["std_error"]) != (ref.mean, ref.std_error):
                return f"m={est['order']}: not bit-identical to an in-process run"
            moment = msnlib.moment_k_convolved(chain, "N", k, est["order"])
            exact = sum(sum(row) for row in moment.entries) / moment.rows
            if abs(est["mean"] - float(exact)) > 5 * est["std_error"]:
                return f"m={est['order']}: {est['mean']} is over 5 standard errors from {float(exact)}"
        return None

    return check


def probe_known_defects(inp) -> list[dict]:
    """Run each known-defect call once and report what it does now."""
    report = []
    for label, argv, want in inp["known"]:
        out = run_cli(argv, inp["workdir"])
        report.append({"call": label, "exit": out.code, "expected_exit": list(want), "ok": out.code in want})
    return report


WORKLOADS = {
    "battery": Workload(
        build_battery,
        lambda inp: [],
        min_passes=3,
        run_pass=run_battery_pass,
    ),
    "chains": Workload(
        build_chains,
        chain_jobs,
        min_passes=2,
    ),
    "closed-forms": Workload(
        build_closed_forms,
        closed_form_jobs,
        min_passes=5,
    ),
    "cli": Workload(
        build_cli,
        cli_jobs,
        min_passes=2,
        subprocess_jobs=True,
    ),
}
