"""The benchmark's workloads: seeded inputs, one timed session, output checks.

A workload draws its datasets from a fixed pool of dataset ids. The run's
seed picks the order in which a run visits the pool; ``reference.json``
holds, per pool id, the values the checks compare against (digests of the
seeded artifacts, the best log-likelihood the recorded code reached). A
run makes whole passes over the pool, so every run fails the same share of
its operations. The inputs are generated here, not imported from
``tests/``, so editing a test cannot move the benchmark.

Every workload drives mhmm through its public entry points only:
``mhmm.cli.main`` and the library calls ``simulate``, ``log_likelihood``,
``viterbi`` and ``constrained_m_step`` (plus the readers, writers and
constraint builders those calls need).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mhmm
from mhmm import cli
from mhmm.errors import NumericalError

# A log-likelihood may fall this far below its recorded reference. Summation
# order changes move a T=500 log-likelihood (about -700) by 1e-10 and a
# T=100k one (about -1.4e5) by 1e-8; an EM that stops one iteration earlier
# or later at tol 1e-8 moves it by about 1e-5. A different local optimum or a
# fit stopped many iterations short moves it by 0.05 or more.
LOGLIK_ABS_TOL = 1e-2
LOGLIK_REL_TOL = 1e-9
# The constrained M-step stops at a score norm below 1e-5 on objectives of
# about -1e4, which pins the objective to within 1e-8; a stalled or worse
# solve sits 1e-2 or more below the optimum.
MSTEP_ABS_TOL = 1e-3
# fit.txt prints the log-likelihood with four decimals.
REPORT_TOL = 5e-5


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def loglik_floor(reference: float) -> float:
    return reference - LOGLIK_ABS_TOL - LOGLIK_REL_TOL * abs(reference)


def generating_model():
    """The acceptance EM case: two autonomous binary chains, so every
    Granger zero holds exactly, with sharp emissions over F1 (3) x F2 (2)."""
    latent = mhmm.VariableScheme.of(("E1", 2), ("E2", 2))
    observed = mhmm.VariableScheme.of(("F1", 3), ("F2", 2))
    transition = np.kron(
        np.array([[0.85, 0.15], [0.25, 0.75]]), np.array([[0.8, 0.2], [0.15, 0.85]])
    )
    emission = np.full((4, 6), 0.044)
    for row, cell in enumerate((0, 3, 4, 5)):
        emission[row, cell] = 0.78
    emission /= emission.sum(axis=1, keepdims=True)
    return mhmm.MhmmModel.from_tables(latent, observed, transition, emission)


DECL = (
    "latent E1 2\nlatent E2 2\nobserved F1 3\nobserved F2 2\n"
    "bidir E1 <-> E2\nbidir F1 <-> F2\n"
)
FULL_EMIT = "".join(f"emit E{i} -> F{j}\n" for i in (1, 2) for j in (1, 2))
LADDER = {
    "saturated": DECL + FULL_EMIT + "dir E1 -> E2\ndir E2 -> E1\n",
    "noGranger": DECL + FULL_EMIT,
    "ownEmit": DECL + "emit E1 -> F1\nemit E2 -> F2\n",
}
# Free coordinates: 12 transition + 20 emission when saturated; noGranger
# zeroes the 4 cross-lag transition coordinates; ownEmit also zeroes F1's 2
# coordinates in the 2 contexts with E2 = 2 and F2's 1 coordinate in the 2
# contexts with E1 = 2.
LADDER_PAR = {"saturated": 32, "noGranger": 28, "ownEmit": 22}


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload; smoke mode uses tiny ones."""

    length: int = 0
    restarts: int = 0
    max_iter: int = 0
    first: int = 0  # the pool is the dataset ids first .. first + pool - 1
    pool: int = 1
    cases: tuple = ()
    concentration: float = 2.0

    @property
    def ids(self) -> range:
        return range(self.first, self.first + self.pool)


SIZES = {
    # Datasets 10..19; on dataset 18 every restart of every rung stalls today,
    # so each pass fails 1 of its 10 compare runs.
    "em-ladder": Sizes(length=500, restarts=3, max_iter=40, first=10, pool=10),
    "long-series": Sizes(length=100_000, restarts=1, max_iter=1, pool=3),
    # Every session fails the same 3 of its 10 calls today.
    "mstep-sweep": Sizes(pool=1, cases=((2, 3), (3, 3), (4, 3), (2, 4), (3, 4))),
}
SMOKE_SIZES = {
    "em-ladder": Sizes(length=120, restarts=1, max_iter=10, pool=4),
    "long-series": Sizes(length=400, restarts=1, max_iter=2, pool=4),
    # Near-uniform rows: the smoke test checks the harness, not the M-step
    # stall that Dirichlet(2) rows provoke in the full sweep.
    "mstep-sweep": Sizes(pool=4, cases=((2, 3),), concentration=50.0),
}


@dataclass
class Tally:
    """Operations attempted and failed, and why the incorrect ones failed.

    An operation fails when it raises, exits nonzero, or its output fails a
    check. A failure is *incorrect* unless it is a numerical failure the
    package reports as such (NumericalError, CLI exit 3) or an operation
    skipped because its input was never produced: wrong outputs, wrong
    digests, domain errors and unexpected exceptions are incorrect.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def failure(self, op: str, detail: str, incorrect: bool = True) -> None:
        self.attempted += 1
        self.failed += 1
        if incorrect:
            self.problems.append(f"{op}: {detail}")

    def outcome(self, op: str, result: "Call") -> bool:
        """Tally a call that did not return; True when it did return."""
        if result.status == "ok":
            return True
        self.failure(op, result.detail, incorrect=result.status != "numerical")
        return False

    @property
    def correct(self) -> bool:
        return not self.problems


@dataclass
class Call:
    """How one operation ended: ``ok`` with its value, ``numerical`` or
    ``error`` with a message."""

    status: str
    value: object = None
    detail: str = ""


def call(fn) -> Call:
    try:
        return Call("ok", fn())
    except NumericalError as exc:
        return Call("numerical", detail=str(exc))
    except Exception as exc:  # the benchmark must survive any failure
        return Call("error", detail=f"{type(exc).__name__}: {exc}")


def run_cli(argv: list[str]) -> Call:
    """Run ``mhmm`` in-process with its output captured; exit code 3 is the
    package's numerical failure, any other nonzero code an error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        result = call(lambda: cli.main(argv))
    if result.status != "ok":
        return Call("error", detail=result.detail)
    if result.value == 0:
        return result
    status = "numerical" if result.value == 3 else "error"
    return Call(status, result.value, f"exit {result.value}: {err.getvalue().strip()}")


def _fit_report(path: Path) -> dict[str, str]:
    return dict(line.split(" ", 1) for line in path.read_text().splitlines())


class Workload:
    """One workload: ``setup`` writes the inputs, ``session`` runs the timed
    operations and returns their raw results, ``check`` tallies them."""

    name = ""
    # The kernel of run.host_probe whose speed the sessions follow.
    probe = "interpreter"

    def __init__(self, sizes: Sizes, workdir: Path, dataset_ids):
        self.sizes = sizes
        self.workdir = workdir
        self.ids = [int(d) for d in dataset_ids]

    def dataset(self, k: int) -> int:
        return self.ids[k % len(self.ids)]

    def out(self, k: int) -> Path:
        """Directory for the files session k writes."""
        return self.workdir / f"session-{k}"

    def setup(self) -> None:
        raise NotImplementedError

    def session(self, k: int):
        raise NotImplementedError

    def check(self, k: int, result, reference: dict | None, tally: Tally) -> dict:
        """Tally the session's operations; returns the values a reference
        records for this dataset."""
        raise NotImplementedError


class EmLadder(Workload):
    """``mhmm compare`` of saturated, noGranger and ownEmit on one series."""

    name = "em-ladder"

    def setup(self) -> None:
        truth = generating_model()
        for d in self.ids:
            _, series = mhmm.simulate(truth, self.sizes.length, seed=d)
            (self.workdir / f"series-{d}.csv").write_text(mhmm.write_series_csv(series))
        options = (
            f"option restarts {self.sizes.restarts}\n"
            f"option max_iter {self.sizes.max_iter}\n"
        )
        for label, text in LADDER.items():
            (self.workdir / f"{label}.spec").write_text(text + options)

    def session(self, k: int):
        d = self.dataset(k)
        argv = ["compare"]
        for label in LADDER:
            argv += ["--spec", str(self.workdir / f"{label}.spec")]
        argv += ["--data", str(self.workdir / f"series-{d}.csv")]
        argv += ["--out", str(self.out(k)), "--seed", str(d)]
        return run_cli(argv)

    def check(self, k, result, reference, tally):
        d = self.dataset(k)
        record = {"series": sha256((self.workdir / f"series-{d}.csv").read_bytes()), "loglike": None}
        if reference and record["series"] != reference["series"]:
            tally.failure("compare", f"dataset {d}: simulated series digest changed")
            return record
        if not tally.outcome("compare", result):
            return record
        lines = (self.out(k) / "comparison.csv").read_text().splitlines()
        rows = {cells[0]: cells for cells in (line.split(",") for line in lines[1:])}
        record["loglike"] = {label: float(cells[5]) for label, cells in rows.items()}
        best = (reference or {}).get("loglike") or {}
        problems = []
        if sorted(rows) != sorted(LADDER):
            problems.append(f"rows {sorted(rows)}")
        for label, par in LADDER_PAR.items():
            if label not in rows:
                continue
            df = LADDER_PAR["saturated"] - par
            if int(rows[label][4]) != par:
                problems.append(f"{label} par {rows[label][4]} != {par}")
            if int(rows[label][2]) != df:
                problems.append(f"{label} df {rows[label][2]} != {df}")
            if label in best and record["loglike"][label] < loglik_floor(best[label]):
                problems.append(
                    f"{label} loglike {record['loglike'][label]:.6f} below reference {best[label]:.6f}"
                )
        if problems:
            tally.failure("compare", f"dataset {d}: " + "; ".join(problems))
        else:
            tally.ok()
        return record


class LongSeries(Workload):
    """simulate -> fit saturated -> log_likelihood and viterbi at T=1e5."""

    name = "long-series"
    OPS = ("simulate", "fit", "log_likelihood", "viterbi")

    def setup(self) -> None:
        (self.workdir / "truth.model").write_text(mhmm.write_model(generating_model()))
        (self.workdir / "saturated.spec").write_text(
            LADDER["saturated"]
            + f"option restarts {self.sizes.restarts}\noption max_iter {self.sizes.max_iter}\n"
        )

    def session(self, k: int):
        d = self.dataset(k)
        out = self.out(k)
        done = {}
        done["simulate"] = run_cli([
            "simulate", "--spec", str(self.workdir / "truth.model"),
            "--length", str(self.sizes.length), "--seed", str(d), "--out", str(out),
        ])
        if done["simulate"].status != "ok":
            return done
        done["fit"] = run_cli([
            "fit", "--spec", str(self.workdir / "saturated.spec"),
            "--data", str(out / "series.csv"), "--out", str(out), "--seed", str(d),
        ])
        if done["fit"].status != "ok":
            return done
        loaded = call(lambda: self._load(out))
        if loaded.status != "ok":
            return {**done, "log_likelihood": loaded, "viterbi": loaded}
        model, series = loaded.value
        done["log_likelihood"] = call(lambda: mhmm.log_likelihood(model, series))
        done["viterbi"] = call(lambda: mhmm.viterbi(model, series))
        return done

    @staticmethod
    def _load(out: Path):
        model = mhmm.read_model((out / "saturated.model").read_text())
        series = mhmm.read_series_csv((out / "series.csv").read_text(), model.obs_scheme)
        return model, series

    def check(self, k, result, reference, tally):
        d = self.dataset(k)
        out = self.out(k)
        ref = reference or {}
        record = {"series": None, "loglike": None, "viterbi": None}
        for op in self.OPS:
            if op not in result:
                tally.failure(op, "not run: an earlier operation failed", incorrect=False)
                continue
            if not tally.outcome(op, result[op]):
                continue
            problem = None
            if op == "simulate":
                record["series"] = sha256((out / "series.csv").read_bytes())
                if ref and record["series"] != ref["series"]:
                    problem = "simulated series digest changed"
            elif op == "fit":
                report = _fit_report(out / "saturated.fit.txt")
                reported = float(report["loglike"])
                if int(report["par"]) != LADDER_PAR["saturated"]:
                    problem = f"par {report['par']} != {LADDER_PAR['saturated']}"
                elif ref.get("loglike") is not None and reported < loglik_floor(ref["loglike"]):
                    problem = f"loglike {reported:.4f} below reference {ref['loglike']:.6f}"
            elif op == "log_likelihood":
                record["loglike"] = loglike = result[op].value
                if abs(loglike - reported) > REPORT_TOL + LOGLIK_REL_TOL * abs(loglike):
                    problem = f"{loglike:.6f} disagrees with fit.txt {reported:.4f}"
            else:
                path = np.ascontiguousarray(result[op].value, dtype="<i8")
                record["viterbi"] = sha256(path.tobytes())
                if ref and record["viterbi"] != ref["viterbi"]:
                    problem = "Viterbi path digest changed"
            if problem:
                tally.failure(op, f"dataset {d}: {problem}")
            else:
                tally.ok()
        return record


HYPOTHESES = {
    "additivity": mhmm.additivity_constraints,
    "invariant_association": mhmm.invariant_association_constraints,
}


def sweep_schemes(n_latent: int, n_observed: int):
    latent = mhmm.VariableScheme.of(*[(f"E{i + 1}", 2) for i in range(n_latent)])
    observed = mhmm.VariableScheme.of(*[(f"F{i + 1}", 3) for i in range(n_observed)])
    return latent, observed


class MstepSweep(Workload):
    """Cold ``constrained_m_step`` on emission tables of growing size.

    Each scheme gets one count table: every latent state's row is
    2000/n_latent_states times a symmetric Dirichlet draw (concentration 2
    in the full sweep), from a generator seeded by 7 + dataset id. Such
    rows sit far from any additive table, which is where the M-step stalls
    today. The full sweep has a single dataset, so its tables do not
    depend on the run's seed: how long a stalling M-step takes to give up
    varies threefold between tables, more than a run can average out.
    """

    name = "mstep-sweep"
    probe = "dense"
    TOTAL_COUNT = 2000.0
    TABLE_SEED = 7

    def setup(self) -> None:
        self.counts = {}
        for d in self.ids:
            rng = np.random.default_rng(self.TABLE_SEED + d)
            for n_latent, n_observed in self.sizes.cases:
                latent, observed = sweep_schemes(n_latent, n_observed)
                rows = rng.dirichlet(np.full(observed.n_states, self.sizes.concentration), latent.n_states)
                self.counts[d, n_latent, n_observed] = self.TOTAL_COUNT / latent.n_states * rows

    def session(self, k: int):
        d = self.dataset(k)
        done = {}
        for n_latent, n_observed in self.sizes.cases:
            latent, observed = sweep_schemes(n_latent, n_observed)
            counts = self.counts[d, n_latent, n_observed]
            for hypothesis, constraints_of in HYPOTHESES.items():

                def solve():
                    space = mhmm.InteractionSpace(observed, latent, "theta")
                    mask = constraints_of(latent, observed, "emission").mask(space)
                    return mask, mhmm.constrained_m_step(space, counts, mask)

                done[f"2^{n_latent}x3^{n_observed}:{hypothesis}"] = (counts, call(solve))
        return done

    def check(self, k, result, reference, tally):
        d = self.dataset(k)
        best = (reference or {}).get("objective") or {}
        record = {"objective": {}}
        for case, (counts, solved) in result.items():
            record["objective"][case] = None
            if not tally.outcome(case, solved):
                continue
            mask, (theta, probs) = solved.value
            objective = float(np.sum(counts * np.log(probs)))
            record["objective"][case] = objective
            problems = []
            if np.any(theta[mask] != 0.0):
                problems.append("a constrained coordinate is not exactly zero")
            if probs.min() <= 0.0 or np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9:
                problems.append("rows are not strictly positive distributions")
            if best.get(case) is not None and objective < best[case] - MSTEP_ABS_TOL:
                problems.append(f"objective {objective:.6f} below reference {best[case]:.6f}")
            if problems:
                tally.failure(case, f"dataset {d}: " + "; ".join(problems))
            else:
                tally.ok()
        return record


WORKLOADS = {w.name: w for w in (EmLadder, LongSeries, MstepSweep)}
