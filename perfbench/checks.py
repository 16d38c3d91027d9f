"""Output checks and independent oracles for the benchmark's ops.

Every check returns a list of problems; an empty list means the op passed.
The oracles rebuild the physics from ``np.fft`` and ``np.linalg`` alone and
never call into the package under test.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

DIST_HEADER = "step,t,n,prob_price,prob_owner"
SUMMARY_HEADER = "step,t,mean_price,mean_owner,delta_price,delta_owner,product,bound,norm_error"
NORM_ERROR_MAX = 1e-8
ROBERTSON_SLACK = 1e-9
PROB_SUM_TOL = 1e-9
SPECTRUM_RESIDUAL_FACTOR = 1e-8
PLATEAU_WINDOW = 1e-3
PLATEAU_SHARE = 0.70
SPECTRUM_ORACLE_TOL = 1e-9
PROPAGATOR_ORACLE_TOL = 1e-6


@dataclass
class OpResult:
    """What one op produced, as read back from its outputs."""

    problems: list = field(default_factory=list)
    digest: str = ""
    bytes_out: int = 0
    records: int = 0
    steps: int = 0
    max_norm_error: float = 0.0
    min_product_minus_bound: float = math.inf
    max_residual: float = 0.0
    last_price: np.ndarray | None = None
    eigenvalues: np.ndarray | None = None


def _table(text: str, header: str, width: int, label: str, problems: list):
    """Parse a CSV table that must end in a newline; None if malformed."""
    if not text.endswith("\n"):
        problems.append(f"{label}: missing final newline (truncated)")
        return None
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != header:
        problems.append(f"{label}: bad header")
        return None
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != width for row in rows):
        problems.append(f"{label}: row with wrong field count")
        return None
    try:
        return np.array(rows, dtype=np.float64).reshape(len(rows), width)
    except ValueError:
        problems.append(f"{label}: non-numeric field")
        return None


def check_evolve(case, exit_code: int, stdout: str) -> OpResult:
    """Structural and invariant checks of one evolve op's two CSV files."""
    result = OpResult()
    problems = result.problems
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
        return result
    try:
        dist_bytes = case.out_path.read_bytes()
        summary_bytes = case.summary_path.read_bytes()
    except OSError as exc:
        problems.append(f"output missing: {exc}")
        return result
    result.bytes_out = len(dist_bytes) + len(summary_bytes) + len(stdout.encode())
    result.digest = hashlib.sha256(dist_bytes + b"\0" + summary_bytes + b"\0" + stdout.encode()).hexdigest()

    size = case.size
    marks = np.array(case.record_steps, dtype=np.float64)
    count = marks.size
    dist = _table(dist_bytes.decode(), DIST_HEADER, 5, "distributions", problems)
    summary = _table(summary_bytes.decode(), SUMMARY_HEADER, 9, "summary", problems)
    if dist is None or summary is None:
        return result
    if dist.shape[0] != count * size or summary.shape[0] != count:
        problems.append(
            f"expected {count} records of {size} rows, got {dist.shape[0]} rows "
            f"and {summary.shape[0]} summary rows"
        )
        return result
    dist = dist.reshape(count, size, 5)
    if np.any(dist[:, :, 0] != marks[:, None]) or np.any(summary[:, 0] != marks):
        problems.append("record steps out of schedule")
    if np.any(dist[:, :, 2] != np.arange(size)[None, :]):
        problems.append("price index column out of order")
    price, owner = dist[:, :, 3], dist[:, :, 4]
    if np.any(price < 0.0) or np.any(owner < 0.0):
        problems.append("negative probability")
    for label, probs in (("price", price), ("owner", owner)):
        worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
        if not worst <= PROB_SUM_TOL:
            problems.append(f"{label} probabilities miss 1 by {worst!r}")
    mean_price = price @ np.arange(size)
    if not float(np.max(np.abs(mean_price - summary[:, 2]))) <= PROB_SUM_TOL * size:
        problems.append("mean_price disagrees with the price distribution")
    norm_error = summary[:, 8]
    margin = summary[:, 6] - summary[:, 7]
    if not float(np.max(norm_error)) <= NORM_ERROR_MAX:
        problems.append(f"norm_error {float(np.max(norm_error))!r} above {NORM_ERROR_MAX}")
    if not float(np.min(margin)) >= -ROBERTSON_SLACK:
        problems.append(f"product undercuts bound by {-float(np.min(margin))!r}")
    status = f"evolve: {count} records, max norm_error "
    if not stdout.startswith(status):
        problems.append("status line missing or wrong record count")
    result.records = count
    result.steps = int(marks[-1])
    result.max_norm_error = float(np.max(norm_error))
    result.min_product_minus_bound = float(np.min(margin))
    result.last_price = price[-1].copy()
    return result


def check_spectrum(case, exit_code: int, stdout: str) -> OpResult:
    """Residual bound and plateau concentration of one spectrum op."""
    result = OpResult()
    problems = result.problems
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
        return result
    raw = stdout.encode()
    result.bytes_out = len(raw)
    result.digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(stdout)
        values = np.array(doc["eigenvalues_imag"], dtype=np.float64)
        residual = float(doc["residual"])
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable spectrum output: {exc}")
        return result
    size = case.size
    if doc.get("n") != size or values.shape != (size,):
        problems.append(f"expected {size} eigenvalues")
        return result
    if np.any(np.diff(values) < 0.0):
        problems.append("eigenvalues not ascending")
    bound = SPECTRUM_RESIDUAL_FACTOR * float(np.linalg.norm(commutator_oracle(size)))
    if not 0.0 <= residual <= bound:
        problems.append(f"residual {residual!r} outside [0, {bound!r}]")
    plateau = size / (2.0 * math.pi)
    share = float(np.mean(np.abs(values - plateau) < PLATEAU_WINDOW))
    if share < PLATEAU_SHARE:
        problems.append(f"only {share:.2f} of eigenvalues on the N/(2*pi) plateau")
    result.max_residual = residual
    result.eigenvalues = values
    return result


def check_op(case, exit_code: int, stdout: str) -> OpResult:
    if case.kind == "spectrum":
        return check_spectrum(case, exit_code, stdout)
    return check_evolve(case, exit_code, stdout)


class Ledger:
    """Attempted and failed ops, first outputs per scenario, margins."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.max_norm_error = 0.0
        self.min_margin = math.inf
        self.max_residual = 0.0

    def record(self, case, code, stdout, extra=()):
        result = check_op(case, code, stdout)
        problems = list(extra) + result.problems
        if not problems:
            # a scenario's first good output meets the oracle; every later
            # output of that scenario must match it byte for byte
            first = self.digests.get(case.name)
            if first is None:
                problems = oracle_problems(case, result)
                if not problems:
                    self.digests[case.name] = result.digest
            elif first != result.digest:
                problems.append("output differs from this scenario's first output")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{case.name}: {p}" for p in problems[:3])
        else:
            self.max_norm_error = max(self.max_norm_error, result.max_norm_error)
            self.min_margin = min(self.min_margin, result.min_product_minus_bound)
            self.max_residual = max(self.max_residual, result.max_residual)
        return result


# ---------------------------------------------------------------- oracles


def _dft(size: int) -> np.ndarray:
    """Unitary forward DFT matrix, entry (k, n) = exp(-2*pi*i*k*n/N)/sqrt(N)."""
    return np.fft.fft(np.eye(size), axis=0, norm="ortho")


def commutator_oracle(size: int) -> np.ndarray:
    """[P, O] with O = F^-1 diag(k) F, built from np.fft."""
    f = _dft(size)
    owner = f.conj().T @ (np.arange(size)[:, None] * f)
    price = np.arange(size, dtype=np.float64)
    return price[:, None] * owner - owner * price[None, :]


def spectrum_oracle_problems(size: int, eigenvalues: np.ndarray) -> list:
    """Compare eigenvalue imaginary parts with eigvalsh of -i[P, O]."""
    h = -1j * commutator_oracle(size)
    reference = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    worst = float(np.max(np.abs(np.asarray(eigenvalues) - reference)))
    if not worst <= SPECTRUM_ORACLE_TOL:
        return [f"eigenvalues off eigvalsh by {worst!r}"]
    return []


def packet_oracle(size: int, kappa: float, n0: int, k0: int) -> np.ndarray:
    """exp(2*pi*i*k0*n/N) times the normalized comb centred at n0."""
    n = np.arange(size)
    m = np.arange(-12, 13)[:, None]
    comb = np.exp(-kappa * np.pi / size * (m * size + n[None, :]) ** 2).sum(axis=0)
    comb /= np.linalg.norm(comb)
    return np.exp(2j * np.pi * k0 * n / size) * comb[(n - n0) % size]


def propagator_oracle(doc: dict) -> np.ndarray:
    """Final price distribution under a static harmonic trap, by eigh."""
    size, state, evo = doc["N"], doc["state"], doc["evolution"]
    pot = evo["potential"]
    f = _dft(size)
    k = np.arange(size, dtype=np.float64)
    n = np.arange(size, dtype=np.float64)
    hamiltonian = f.conj().T @ ((k * k / (2.0 * evo["mu"]))[:, None] * f)
    hamiltonian += np.diag(0.5 * pot["strength"] * (n - pot["center"]) ** 2)
    energies, vectors = np.linalg.eigh((hamiltonian + hamiltonian.conj().T) / 2.0)
    psi0 = packet_oracle(size, state["kappa"], state["n0"], state["k0"])
    duration = evo["steps"] * evo["dt"]
    psi = vectors @ (np.exp(-1j * duration * energies) * (vectors.conj().T @ psi0))
    return np.abs(psi) ** 2


def oracle_problems(case, result: OpResult) -> list:
    """Independent cross-check of one op's output, where one applies."""
    if case.kind == "spectrum":
        return spectrum_oracle_problems(case.size, result.eigenvalues)
    if case.scenario["evolution"]["potential"]["type"] != "harmonic":
        return []  # time-dependent trap: no closed-form propagator
    worst = float(np.max(np.abs(result.last_price - propagator_oracle(case.scenario))))
    if not worst <= PROPAGATOR_ORACLE_TOL:
        return [f"final price distribution off the eigh propagator by {worst!r}"]
    return []
