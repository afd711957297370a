"""Decision cascade, matrix file I/O and report rendering.

``analyze`` runs every test battery on a matrix, logs each step, and
settles on a verdict: the first definitive outcome in cascade order wins,
cheap constructive wins go before combinatorial search, and the exact
triangle-free criterion always runs, so its negative verdicts are never
missed.  With ``heuristic`` on, every input left unsettled, whatever its
rank, gets one rotation search of its extreme block at rank many rows.
``UNDECIDED`` is an honest terminal state; outside the covered cases no
complete decision procedure exists.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import cones, graphcond, rotate
from .errors import ComputationFailureError, CprankError, InvalidInputError
from .matcore import (
    DEFAULT_TOL,
    MatrixLike,
    SymmetricMatrix,
    Tolerances,
    as_symmetric,
    classify_dn,
    psd_rank,
)
from .srfactor import CpCertificate, verify_certificate

__all__ = [
    "AnalysisConfig",
    "StepRecord",
    "AnalysisReport",
    "analyze",
    "read_matrix",
    "matrix_to_text",
    "write_report",
    "NOT_DN",
    "NOT_CP",
    "NOT_IN_CP_N_R",
    "CP_RANK_EQ_RANK",
    "CP_WITH_BOUND",
    "UNDECIDED",
]

NOT_DN = "NOT_DN"
NOT_CP = "NOT_CP"
NOT_IN_CP_N_R = "NOT_IN_CP_N_R"
CP_RANK_EQ_RANK = "CP_RANK_EQ_RANK"
CP_WITH_BOUND = "CP_WITH_BOUND"
UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs shared by the whole cascade; identical config and input give
    byte-identical reports."""

    tol: Tolerances = DEFAULT_TOL
    seed: int = 0
    restarts: int = 200
    heuristic: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.tol, Tolerances):
            raise InvalidInputError(f"tol must be a Tolerances, got {self.tol!r}")
        rotate.check_counts(seed=self.seed, restarts=self.restarts)


@dataclass
class StepRecord:
    name: str
    outcome: str
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0  # seconds since the previous record, text output only


@dataclass
class AnalysisReport:
    order: int
    dn: str
    rank: int
    verdict: str
    steps: list[StepRecord]
    certificate: CpCertificate | None
    cp_rank_lower: int | None
    cp_rank_upper: int | None
    seed: int


class _Cascade:
    """Mutable state threaded through the analysis steps; ``clock`` is the
    time of the last record, the analysis start before the first."""

    def __init__(self, S: SymmetricMatrix, config: AnalysisConfig, dn: str, rank: int, clock: float):
        self.S = S
        self.config = config
        self.tol = config.tol
        self.steps: list[StepRecord] = []
        self.dn = dn
        self.rank = rank
        self.lower: int | None = None
        self.upper: int | None = None
        self.terminal: str | None = None
        self.certificate: CpCertificate | None = None
        self.rays: cones.ConeReport | None = None
        self.clock = clock

    def step(self, name: str, outcome: str, details: dict | None = None):
        now = time.perf_counter()
        self.steps.append(StepRecord(name=name, outcome=outcome, details=details or {},
                                     elapsed=now - self.clock))
        self.clock = now

    def settle(self, verdict: str) -> None:
        if self.terminal is None:
            self.terminal = verdict

    def accept(self, cert: CpCertificate, name: str, extra: dict | None = None) -> None:
        """Verify a step's certificate, built on the input, and fold it
        into verdict and bounds.  ``extra`` details follow the
        verification's in the step record.
        """
        check = verify_certificate(self.S, cert, self.tol)
        details = {
            "rows": cert.rows,
            "residual": check.residual,
            "min_entry": cert.min_entry,
            "method": cert.method_tag,
            "verified": check.passed,
            **(extra or {}),
        }
        if not check.passed:
            self.step(name, "FAILED_VERIFICATION", details)
            return
        self.fold(cert)
        self.step(name, f"CERTIFICATE(rows={cert.rows})", details)

    def fold(self, cert: CpCertificate) -> None:
        """Take a verified certificate of the input into the best
        certificate and the upper bound; rank many rows settle equality."""
        if self.certificate is None or cert.rows < self.certificate.rows:
            self.certificate = cert
        self.upper = cert.rows if self.upper is None else min(self.upper, cert.rows)
        if cert.rows == self.rank:
            self.settle(CP_RANK_EQ_RANK)


def analyze(A: MatrixLike, config: AnalysisConfig = AnalysisConfig()) -> AnalysisReport:
    """Run the full decision cascade on a symmetric matrix.

    Order: DN classification, the row-sum construction, the extreme-ray
    report and the few-rays factorization of its extreme block, the
    triangle-free criterion and Kaykobad's factorization, and optionally
    a heuristic rotation of the same block at rank many rows, at every
    rank.  The few-rays factorization is the guaranteed rotation
    certificate: rank at most 2, rank 3 with three extreme rays, full
    rank at order at most 4 and an nnq basis at rank at most 4 all leave
    at most 4 extreme rays.  The triangle-free criterion is the one graph
    step: it is exact on every cycle of order at least 4, so its
    ``NOT_CP`` is the only negative graph verdict, and a ``NOT_CP``
    report carries no bounds and no certificate.
    Every step runs on the input; its rank factor is exactly zero on
    the zero rows that ``deflate_zero_rows`` lists.
    Every step is logged even after the verdict is settled.
    """
    start = time.perf_counter()
    tol = config.tol
    S = as_symmetric(A, tol)
    dn = classify_dn(S, tol)
    rank = dn.rank if dn.is_dn else psd_rank(S, tol).rank
    cas = _Cascade(S, config, dn.status, rank, start)
    cas.step("classify_dn", dn.status if not dn.is_dn else f"DN({rank})", {"rank": rank})

    if not dn.is_dn:
        cas.settle(NOT_DN)
        for name in ("factor_steps", "graph_steps"):
            cas.step(name, "SKIPPED", {"reason": "input is not doubly nonnegative"})
        return _finish(cas)

    cas.lower = rank
    zero_rows = S.zero_rows(tol.eps_nonneg)
    if zero_rows.size and zero_rows.size < S.n:
        cas.step("deflate_zero_rows", f"DROPPED({zero_rows.size})",
                 {"zero_rows": [int(i) + 1 for i in zero_rows]})

    _rowsum_step(cas)
    _cone_steps(cas)
    _graph_steps(cas)
    _heuristic_step(cas)

    return _finish(cas)


def _finish(cas: _Cascade) -> AnalysisReport:
    if cas.terminal is not None:
        verdict = cas.terminal
    elif cas.upper is not None:
        verdict = CP_WITH_BOUND
    else:
        verdict = UNDECIDED
    # a matrix that is not CP has no cp-rank to bound; a factor that
    # verified within tolerance before the exact test settled NOT_CP
    # stays in its step record only
    lower, upper = (None, None) if verdict == NOT_CP else (cas.lower, cas.upper)
    return AnalysisReport(
        order=cas.S.n,
        dn=cas.dn,
        rank=cas.rank,
        verdict=verdict,
        steps=cas.steps,
        certificate=None if verdict == NOT_CP else cas.certificate,
        cp_rank_lower=lower,
        cp_rank_upper=upper,
        seed=cas.config.seed,
    )


def _rowsum_step(cas: _Cascade) -> None:
    ok, data = rotate.rowsum_condition(cas.S, cas.rank, cas.tol)
    details = {
        "holds": ok,
        "row_sums": data.row_sums,
        "total": data.total,
    }
    if not ok:
        cas.step("rowsum", "CONDITION_FALSE", details)
        return
    try:
        cert = rotate._rowsum_certificate(cas.S, cas.tol)
    except CprankError as exc:
        cas.step("rowsum", "FAILED", {**details, "error": str(exc)})
        return
    cas.accept(cert, "rowsum", details)


def _cone_steps(cas: _Cascade) -> None:
    """The extreme-ray report and the few-rays factorization, which
    rotates the extreme block of the rank factor.  No step needs the fit
    of the columns off the rays (:func:`cones.fit_rays`)."""
    report = cas.rays = cones.extreme_rays(cas.S, cas.tol)
    cas.step("extreme_rays", f"RAYS({report.m})",
             {"m": report.m, "extreme_indices": [i + 1 for i in report.extreme_indices]})

    if report.m > rotate.FEW_RAYS_MAX:
        cas.step("few_rays_factor", "NOT_APPLICABLE",
                 {"reason": f"more than {rotate.FEW_RAYS_MAX} extreme rays"})
    else:
        try:
            cert = rotate.few_rays_factor(
                cas.S, report, cas.tol, seed=cas.config.seed, restarts=cas.config.restarts
            )
        except ComputationFailureError as exc:
            cas.step("few_rays_factor", "BUDGET_EXHAUSTED", {"error": str(exc)})
        else:
            cas.accept(cert, "few_rays_factor")


def _graph_steps(cas: _Cascade) -> None:
    tol, S = cas.tol, cas.S

    tri = graphcond.triangle_free_criterion(S, tol)
    cas.step("triangle_free", tri.status, {"cp_rank": tri.cp_rank})
    if tri.status == graphcond.NOT_CP:
        cas.settle(NOT_CP)
    elif tri.status == graphcond.CP:
        # no factor comes with the criterion's cp-rank, so it raises only
        # the lower bound; an upper bound comes from a verified certificate
        cas.lower = max(cas.lower or 0, tri.cp_rank)
        if tri.cp_rank > cas.rank:
            cas.settle(NOT_IN_CP_N_R)

    kay = graphcond.kaykobad_factor(S, tol)
    if kay is None:
        cas.step("kaykobad", graphcond.NOT_APPLICABLE)
        return
    check = verify_certificate(S, kay, tol)
    if not check.passed:
        cas.step("kaykobad", "FAILED_VERIFICATION", {"residual": check.residual})
        return
    cas.fold(kay)
    cas.step("kaykobad", f"CERTIFICATE(rows={kay.rows})",
             {"rows": kay.rows, "residual": check.residual})


def _heuristic_step(cas: _Cascade) -> None:
    if not cas.config.heuristic:
        cas.step("heuristic_rotation", "DISABLED")
        return
    if cas.terminal is not None:  # NOT_DN never reaches the step
        reason = "already certified" if cas.terminal == CP_RANK_EQ_RANK else "negative verdict settled"
        cas.step("heuristic_rotation", "SKIPPED", {"reason": reason})
        return
    cert = rotate._rays_rotation(
        cas.S, cas.rays, cas.rank, "heuristic_rotation", cas.tol, cas.config.seed, cas.config.restarts
    )
    if cert is None:
        cas.step("heuristic_rotation", "NOT_FOUND")
        return
    cas.accept(cert, "heuristic_rotation")


# ---------------------------------------------------------------------------
# matrix file I/O


def read_matrix(path: str, fmt: str = "dense", tol: Tolerances = DEFAULT_TOL) -> SymmetricMatrix:
    """Read a matrix file.

    ``dense``: first token is the order ``n``, followed by ``n*n``
    whitespace-separated entries in row-major order.  ``csv``: ``n`` lines
    of ``n`` comma-separated values.  Inputs are symmetrized within
    ``matcore.EPS_SYM``; larger asymmetry is an error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "dense":
        tokens = text.split()
        if not tokens:
            raise InvalidInputError(f"{path}: empty file")
        try:
            n = int(tokens[0])
        except ValueError:
            raise InvalidInputError(f"{path}: first token must be the order, got {tokens[0]!r}") from None
        if n < 1:
            raise InvalidInputError(f"{path}: order must be positive, got {n}")
        if len(tokens) - 1 != n * n:
            raise InvalidInputError(
                f"{path}: expected {n * n} entries after the order, found {len(tokens) - 1}"
            )
        try:
            values = [float(t) for t in tokens[1:]]
        except ValueError as exc:
            raise InvalidInputError(f"{path}: {exc}") from None
        entries = np.array(values).reshape(n, n)
    elif fmt == "csv":
        rows = []
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise InvalidInputError(f"{path}: empty file")
        for lineno, line in enumerate(lines, start=1):
            rows.append([])
            for col, cell in enumerate(line.split(","), start=1):
                try:
                    rows[-1].append(float(cell))
                except ValueError:
                    raise InvalidInputError(
                        f"{path}: line {lineno}, column {col}: not a number"
                    ) from None
            if len(rows[-1]) != len(lines):
                raise InvalidInputError(
                    f"{path}: line {lineno} has {len(rows[-1])} values, expected {len(lines)}"
                )
        entries = np.array(rows)
    else:
        raise InvalidInputError(f"unknown matrix format {fmt!r}")
    try:
        return SymmetricMatrix(entries, tol)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def matrix_to_text(S: SymmetricMatrix, fmt: str = "dense") -> str:
    """Render a matrix in a file format; floats round-trip exactly."""
    rows = [[_num(v) for v in row] for row in S.a]
    if fmt == "dense":
        body = "\n".join(" ".join(row) for row in rows)
        return f"{S.n}\n{body}\n"
    if fmt == "csv":
        return "\n".join(",".join(row) for row in rows) + "\n"
    raise InvalidInputError(f"unknown matrix format {fmt!r}")


# ---------------------------------------------------------------------------
# report rendering


def _num(x: float) -> str:
    return format(float(x), ".17g")


# what ``json.dumps`` does with a string, without its per-call set-up
_json_string = json.encoder.encode_basestring_ascii


def _json_value(value) -> str:
    """JSON text of a report value, numbers at 17 significant digits.

    Floats and ints are dispatched on their exact type first.  A float row
    is one ``%`` operation: ``"%.17g" % v`` is ``format(v, ".17g")``."""
    kind = type(value)
    if kind is float:
        return format(value, ".17g")
    if kind is int:
        return str(value)
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, dict):
        inner = ",".join([f"{_json_string(str(k))}:{_json_value(v)}" for k, v in value.items()])
        return "{" + inner + "}"
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        if value.ndim > 1:
            return "[" + ",".join(map(_json_value, value)) + "]"
        return "[" + ("%.17g," * value.size)[:-1] % tuple(value.tolist()) + "]"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        return "[" + ",".join(map(_json_value, seq)) + "]"
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _num(float(value))
    raise TypeError(f"cannot serialize {type(value)!r}")


def report_to_json(report: AnalysisReport) -> str:
    """Stable-order JSON with numbers at 17 significant digits; format
    strings write the fixed keys around the values."""
    steps = ",".join([
        '{"name":%s,"outcome":%s,"details":%s}'
        % (_json_string(s.name), _json_string(s.outcome), _json_value(s.details))
        for s in report.steps
    ])
    c = report.certificate
    certificate = "" if c is None else '"certificate":{"rows":%s,"residual":%s,"entries":%s},' % (
        _json_value(c.rows), _json_value(c.residual), _json_value(c.C))
    return (
        '{"order":%s,"rank":%s,"dn":%s,"verdict":%s,"steps":[%s],%s'
        '"cp_rank_lower":%s,"cp_rank_upper":%s,"seed":%s}'
    ) % (
        _json_value(report.order), _json_value(report.rank), _json_value(report.dn),
        _json_value(report.verdict), steps, certificate, _json_value(report.cp_rank_lower),
        _json_value(report.cp_rank_upper), _json_value(report.seed),
    )


def report_to_text(report: AnalysisReport) -> str:
    lines = [
        f"order {report.order}   dn {report.dn}   rank {report.rank}",
        f"verdict: {report.verdict}",
        f"cp-rank bounds: [{report.cp_rank_lower}, {report.cp_rank_upper}]",
        "steps:",
    ]
    for s in report.steps:
        extras = " ".join(
            f"{k}={v.tolist() if isinstance(v, np.ndarray) else v}" for k, v in s.details.items()
        )
        lines.append(f"  {s.name:<22} {s.outcome:<24} {extras}  [{s.elapsed * 1e3:.1f} ms]")
    if report.certificate is not None:
        c = report.certificate
        lines.append(
            f"certificate: {c.rows} rows, method {c.method_tag}, residual {c.residual:.3e}"
        )
        for row in c.C:
            lines.append("  " + "  ".join(f"{v: .6f}" for v in row))
    return "\n".join(lines) + "\n"


def write_report(report: AnalysisReport, fmt: str = "json") -> bytes:
    """Serialize a report; the JSON form is the compatibility contract."""
    if fmt == "json":
        return (report_to_json(report) + "\n").encode("utf-8")
    if fmt == "text":
        return report_to_text(report).encode("utf-8")
    raise InvalidInputError(f"unknown report format {fmt!r}")
