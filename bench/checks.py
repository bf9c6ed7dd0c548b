"""Correctness checks and quality loss for benchmark reports.

The replays recompute, in plain numpy and independently of the library,
what a report claims: a certificate's atoms lie in the positive dual unit
ball, its masses form a probability vector, and each stored witness obeys
the domination inequality within the solve tolerance; an estimate's
witness family reproduces its value; the chain of constants is monotone.

Quality loss compares a report with the reference values captured at the
seed commit (``reference.json``): certified constants are upper bounds,
so a larger C is a loss; chain values are lower bounds, so a smaller value
is a loss.
"""

from __future__ import annotations

import numpy as np

CHAIN_KEYS = ("operator_norm", "M_q", "M_pq", "pi_q")
REL_TOL = 1e-9


def _lebesgue_norm_rows(F: np.ndarray, s: float, mu: np.ndarray) -> np.ndarray:
    return (np.abs(F) ** s @ mu) ** (1.0 / s)


def _dual_norm_of_pth_power(h: np.ndarray, s: float, p: float,
                            mu: np.ndarray) -> float:
    """Norm of h in the Köthe dual of L^{s/p}(mu), the p-th power of L^s."""
    sigma = s / p
    if sigma == 1.0:
        return float(np.max(h))
    sigma_dual = sigma / (sigma - 1.0)
    return float((h ** sigma_dual @ mu) ** (1.0 / sigma_dual))


def _instance(doc: dict):
    mu = np.asarray(doc["measure"]["weights"], dtype=float)
    s = float(doc["space"]["s"])
    A = np.asarray(doc["operator"]["matrix"], dtype=float)
    return mu, s, A, float(doc["p"]), float(doc["q"])


def _replay_certificate(doc: dict, report: dict) -> list[str]:
    mu, s, A, p, q = _instance(doc)
    tol = float(report["tol"])
    cert = report["certificate"]
    problems = []
    H = np.array([atom["h"] for atom in cert["xi"]["atoms"]], dtype=float)
    masses = np.array([atom["mass"] for atom in cert["xi"]["atoms"]])
    if np.any(masses < 0.0) or abs(masses.sum() - 1.0) > REL_TOL:
        problems.append("mixture masses are not a probability vector")
    if np.any(H < 0.0):
        problems.append("mixture atom with a negative entry")
    worst_atom = max(_dual_norm_of_pth_power(h, s, p, mu) for h in H)
    if worst_atom > 1.0 + 1e-9:
        problems.append(f"atom outside the dual unit ball (norm {worst_atom})")
    if report["status"] == "pass" and cert["witnesses"]:
        W = np.array(cert["witnesses"], dtype=float)
        image = np.linalg.norm(W @ A.T, axis=1)
        inner = np.maximum((np.abs(W) ** p * mu) @ H.T, 0.0)
        mixture = (inner ** (q / p) @ masses) ** (1.0 / q)
        excess = float(np.max(image - cert["C"] * mixture))
        if excess > tol:
            problems.append(f"witness violates the certificate by {excess}")
    return problems


def _replay_chain(doc: dict, report: dict) -> list[str]:
    mu, s, A, p, q = _instance(doc)
    chain_report = report["chain_report"]
    chain = chain_report["chain"]
    estimates = chain_report["estimates"]
    problems = []
    slack = float(chain_report["slack"]) * max(chain["pi_q"], 1.0)
    values = [chain[k] for k in CHAIN_KEYS]
    if any(a > b + slack for a, b in zip(values, values[1:])):
        problems.append(f"chain is not monotone: {values}")
    for key in CHAIN_KEYS:
        if chain[key] < estimates[key]["value"]:
            problems.append(f"chain value {key} below its own estimate")

    def check(key, value):
        claimed = estimates[key]["value"]
        if abs(value - claimed) > REL_TOL * max(abs(claimed), 1.0):
            problems.append(f"{key} witness replays to {value}, not {claimed}")

    F = np.array(estimates["operator_norm"]["witness"], dtype=float)
    if F.size:
        check("operator_norm", float(np.linalg.norm(A @ F[0])
                                     / _lebesgue_norm_rows(F[:1], s, mu)[0]))
    F = np.array(estimates["M_q"]["witness"], dtype=float)
    if F.size:
        num = float(np.sum(np.linalg.norm(F @ A.T, axis=1) ** q) ** (1.0 / q))
        agg = (np.abs(F) ** q).sum(axis=0) ** (1.0 / q)
        check("M_q", num / _lebesgue_norm_rows(agg[None, :], s, mu)[0])
    return problems


def replay(command: str, doc: dict, report: dict) -> list[str]:
    """Problems found in one report; an empty list means it is correct."""
    if report["status"] != ("pass" if all(c["passed"] for c in report["checks"])
                            else "fail"):
        return ["report status disagrees with its checks"]
    if command == "factorize":
        return _replay_certificate(doc, report)
    if command == "constants":
        return _replay_chain(doc, report)
    raise ValueError(f"no replay for command {command!r}")


def reference_entry(command: str, report: dict | None) -> dict:
    """The values of one report that later runs are compared with."""
    if report is None:
        return {"status": "raised"}
    entry = {"status": report["status"]}
    if command == "factorize":
        cert = report["certificate"]
        entry.update(C=cert["C"], converged=cert["converged"])
    else:
        entry.update(chain=report["chain_report"]["chain"])
    return entry


def quality_loss(command: str, report: dict, ref: dict) -> float | None:
    """Relative loss against the reference, clipped below at 0.

    None when the instance does not count: a certificate that did not
    converge now or at the reference.
    """
    if command == "factorize":
        cert = report["certificate"]
        if not (cert["converged"] and ref.get("converged")):
            return None
        return max(0.0, cert["C"] / ref["C"] - 1.0)
    chain = report["chain_report"]["chain"]
    return max(0.0, *(1.0 - chain[k] / ref["chain"][k]
                      for k in CHAIN_KEYS if ref["chain"][k] > 0.0))
