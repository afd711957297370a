"""Decision cascade, matrix file I/O and report rendering.

``analyze`` runs every test battery on a matrix, logs each step, and
settles on a verdict: the first definitive outcome in cascade order wins,
cheap constructive wins go before combinatorial search, and the two
necessary conditions always run so negative verdicts are never missed.
``UNDECIDED`` is an honest terminal state; outside the covered cases no
complete decision procedure exists.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import cones, graphcond, nnq, rotate
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
from .srfactor import CpCertificate, make_certificate, sr_factor, verify_certificate

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
        rotate.check_seed_restarts(self.seed, self.restarts)


@dataclass
class StepRecord:
    name: str
    outcome: str
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0  # seconds, reported in text output only


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
    """Mutable state threaded through the analysis steps."""

    def __init__(self, S: SymmetricMatrix, config: AnalysisConfig):
        self.S = S
        self.config = config
        self.tol = config.tol
        self.steps: list[StepRecord] = []
        self.rank = 0
        self.lower: int | None = None
        self.upper: int | None = None
        self.terminal: str | None = None
        self.certificate: CpCertificate | None = None

    def step(self, name: str, outcome: str, details: dict | None = None, t0: float | None = None):
        elapsed = time.perf_counter() - t0 if t0 is not None else 0.0
        self.steps.append(StepRecord(name=name, outcome=outcome, details=details or {}, elapsed=elapsed))

    def settle(self, verdict: str) -> None:
        if self.terminal is None:
            self.terminal = verdict

    def accept(self, cert: CpCertificate, name: str, t0: float, extra: dict | None = None) -> None:
        """Verify a step's certificate, built on the input, and fold it
        into verdict and bounds.  ``extra`` details follow the
        verification's in the step record.
        """
        check = verify_certificate(self.S, cert, self.tol)
        details = {
            "rows": cert.rows,
            "residual": check.residual,
            "min_entry": check.min_entry,
            "method": cert.method_tag,
            "verified": check.passed,
            **(extra or {}),
        }
        if not check.passed:
            self.step(name, "FAILED_VERIFICATION", details, t0)
            return
        self.fold(cert)
        self.step(name, f"CERTIFICATE(rows={cert.rows})", details, t0)

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

    Order: DN classification, the row-sum construction, then from one
    extreme-ray report the nnq detection and the few-rays factorization,
    the graph conditions, and optionally a heuristic rotation for rank 5
    and up.  The few-rays factorization is the one guaranteed rotation
    certificate: rank at most 2, rank 3 with three extreme rays, full rank
    at order at most 4 and an nnq basis at rank at most 4 all leave at
    most 4 extreme rays.
    Every step runs on the input; its rank factor is exactly zero on
    the zero rows that ``deflate_zero_rows`` lists.
    Every step is logged even after the verdict is settled.
    """
    tol = config.tol
    S = as_symmetric(A, tol)
    cas = _Cascade(S, config)

    t0 = time.perf_counter()
    dn = classify_dn(S, tol)
    rank = dn.rank if dn.is_dn else psd_rank(S, tol).rank
    cas.rank = rank
    cas.step("classify_dn", dn.status if not dn.is_dn else f"DN({rank})", {"rank": rank}, t0)

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
    dn_status = cas.steps[0].outcome
    return AnalysisReport(
        order=cas.S.n,
        dn="DN" if dn_status.startswith("DN(") else dn_status,
        rank=cas.rank,
        verdict=verdict,
        steps=cas.steps,
        certificate=cas.certificate,
        cp_rank_lower=cas.lower,
        cp_rank_upper=cas.upper,
        seed=cas.config.seed,
    )


def _rowsum_step(cas: _Cascade) -> None:
    t0 = time.perf_counter()
    ok, data = rotate.rowsum_condition(cas.S, cas.rank, cas.tol)
    details = {
        "holds": ok,
        "row_sums": data.row_sums,
        "total": data.total,
    }
    if not ok:
        cas.step("rowsum", "CONDITION_FALSE", details, t0)
        return
    try:
        cert = rotate._rowsum_certificate(cas.S, cas.tol)
    except CprankError as exc:
        cas.step("rowsum", "FAILED", {**details, "error": str(exc)}, t0)
        return
    cas.accept(cert, "rowsum", t0, details)


def _nnq_step(cas: _Cascade, rays: cones.ConeReport) -> None:
    t0 = time.perf_counter()
    nnq_result = nnq.nnq_from_rays(cas.S, rays, cas.rank, cas.tol)
    w = nnq_result.witness
    details = {"indices": [i + 1 for i in w.indices], "det": w.detval} if w else {}
    cas.step("nnq_search", nnq_result.status, details, t0)


def _cone_steps(cas: _Cascade) -> None:
    """nnq detection, the extreme-ray report and the few-rays
    factorization, all from one extreme-ray computation."""
    t0 = time.perf_counter()
    report = cones.extreme_rays(cas.S, cas.tol)
    rays_elapsed = time.perf_counter() - t0

    _nnq_step(cas, report)
    cas.steps.append(StepRecord(
        name="extreme_rays",
        outcome=f"RAYS({report.m})",
        details={
            "m": report.m,
            "extreme_indices": [i + 1 for i in report.extreme_indices],
            "residual": report.residual,
        },
        elapsed=rays_elapsed,
    ))

    t0 = time.perf_counter()
    if report.m > 4:
        cas.step("few_rays_factor", "NOT_APPLICABLE", {"reason": "more than 4 extreme rays"}, t0)
    else:
        try:
            cert = cones.few_rays_factor(
                cas.S, report, cas.tol, seed=cas.config.seed, restarts=cas.config.restarts
            )
        except ComputationFailureError as exc:
            cas.step("few_rays_factor", "BUDGET_EXHAUSTED", {"error": str(exc)}, t0)
        else:
            cas.accept(cert, "few_rays_factor", t0)


def _graph_steps(cas: _Cascade) -> None:
    tol, S = cas.tol, cas.S

    t0 = time.perf_counter()
    cycle = graphcond.cycle_necessary(S, tol)
    details = {
        "off_diag_sum": cycle.off_diag_sum,
        "diag_sum": cycle.diag_sum,
        "cprk_lower_bound": cycle.cprk_lower_bound,
    }
    cas.step("cycle_necessary", cycle.status, details, t0)
    if cycle.status == graphcond.FAILS:
        cas.settle(NOT_CP)
    elif cycle.status == graphcond.PASSES:
        cas.lower = max(cas.lower or 0, cycle.cprk_lower_bound)
        if cas.rank < cycle.cprk_lower_bound:
            cas.settle(NOT_IN_CP_N_R)

    t0 = time.perf_counter()
    tri = graphcond.triangle_free_criterion(S, tol)
    cas.step("triangle_free", tri.status, {"cp_rank": tri.cp_rank}, t0)
    if tri.status == graphcond.NOT_CP:
        cas.settle(NOT_CP)
    elif tri.status == graphcond.CP:
        cas.lower = max(cas.lower or 0, tri.cp_rank)
        cas.upper = tri.cp_rank if cas.upper is None else min(cas.upper, tri.cp_rank)
        if tri.cp_rank > cas.rank:
            cas.settle(NOT_IN_CP_N_R)

    t0 = time.perf_counter()
    kay = graphcond.kaykobad_factor(S, tol)
    if kay is None:
        cas.step("kaykobad", graphcond.NOT_APPLICABLE, {}, t0)
        return
    check = verify_certificate(S, kay, tol)
    if not check.passed:
        cas.step("kaykobad", "FAILED_VERIFICATION", {"residual": check.residual}, t0)
        return
    cas.fold(kay)
    cas.step("kaykobad", f"CERTIFICATE(rows={kay.rows})",
             {"rows": kay.rows, "residual": check.residual}, t0)


def _heuristic_step(cas: _Cascade) -> None:
    t0 = time.perf_counter()
    if not cas.config.heuristic:
        cas.step("heuristic_rotation", "DISABLED", {}, t0)
        return
    if cas.rank <= 4:
        cas.step("heuristic_rotation", "SKIPPED", {"reason": "rank at most 4 is covered"}, t0)
        return
    if cas.terminal == CP_RANK_EQ_RANK:
        cas.step("heuristic_rotation", "SKIPPED", {"reason": "already certified"}, t0)
        return
    if cas.terminal in (NOT_CP, NOT_IN_CP_N_R):
        cas.step("heuristic_rotation", "SKIPPED", {"reason": "negative verdict settled"}, t0)
        return
    B = sr_factor(cas.S, cas.tol)
    eps = cas.tol.eps_nonneg * np.sqrt(cas.S.scale)
    Q = rotate.orthant_rotation_search(
        B, restarts=cas.config.restarts, seed=cas.config.seed, eps=eps
    )
    if Q is None:
        cas.step("heuristic_rotation", "NOT_FOUND", {}, t0)
        return
    cert = make_certificate(cas.S, Q @ B, "heuristic_rotation", cas.tol)
    cas.accept(cert, "heuristic_rotation", t0)


# ---------------------------------------------------------------------------
# matrix file I/O


def read_matrix(path: str, fmt: str = "dense", tol: Tolerances = DEFAULT_TOL) -> SymmetricMatrix:
    """Read a matrix file.

    ``dense``: first token is the order ``n``, followed by ``n*n``
    whitespace-separated entries in row-major order.  ``csv``: ``n`` lines
    of ``n`` comma-separated values.  Inputs are symmetrized within
    ``eps_sym``; larger asymmetry is an error.
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
            cells = [c.strip() for c in line.split(",")]
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                bad = next(i for i, c in enumerate(cells, start=1) if not _is_float(c))
                raise InvalidInputError(
                    f"{path}: line {lineno}, column {bad}: not a number"
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


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


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
