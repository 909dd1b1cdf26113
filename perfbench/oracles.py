"""Independent oracles and output checks for the benchmark.

Nothing here imports lyapzeros: expected values come from closed forms
written out below, so a defect in the library cannot hide itself by
agreeing with its own answer.
"""

from __future__ import annotations

import json
from math import comb

SUM_RULE_TOL = 1e-9      # |sum of exponents| <= tol * lambda_max
FORM_ERROR_TOL = 1e-10   # max_sample_form_error must stay below this


def _binom(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def _rep_degree(rep: str) -> int:
    """Exterior degree of a representation label; the standard rep is degree 1."""
    if rep == "standard":
        return 1
    if rep.startswith("ext:"):
        return int(rep[4:])
    raise ValueError(f"no exterior degree for {rep!r}")


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def su_zero_parity(p: int, q: int, k: int) -> tuple[int, int]:
    """(even, odd) complex counts of zero-restricted k-subsets of su(p,q):
    a subset restricts to zero iff it takes a of the q canceling pairs whole
    and k - 2a of the p - q unrestricted indices; parity is that of a."""
    even = sum(_binom(q, a) * _binom(p - q, k - 2 * a) for a in range(0, q + 1, 2))
    odd = sum(_binom(q, a) * _binom(p - q, k - 2 * a) for a in range(1, q + 1, 2))
    return even, odd


def real_dim(query: dict) -> int:
    """Real dimension of the representation space of a query."""
    group, rep = query["group"], query["rep"]
    if group == "su":
        return 2 * _binom(query["p"] + query["q"], _rep_degree(rep))
    if group == "so-star":
        return 2 * _binom(2 * query["n"], _rep_degree(rep))
    if group == "sp":
        return 2 * query["g"]
    m = query["m"]                              # so(m,2)
    if rep == "standard":
        return m + 2
    if rep == "spin":                           # m = 2n - 1
        return 2 ** ((m + 1) // 2)
    return 2 ** (m // 2)                        # half-spin, m = 2n - 2


def zero_count_real(query: dict) -> int:
    """Real number of zero restricted weights of a query."""
    group, rep = query["group"], query["rep"]
    if group == "su":
        even, odd = su_zero_parity(query["p"], query["q"], _rep_degree(rep))
        return 2 * (even + odd)
    if group == "so-star":
        # e_{2i-1}, e_{2i} -> f_i: each pair block contributes sum_a C(2,a)^2 t^(2a);
        # for odd n the last coordinate restricts to 0 and contributes (1 + t)^2
        n = query["n"]
        poly = [1]
        for _ in range(n // 2):
            poly = _poly_mul(poly, [1, 0, 4, 0, 1])
        if n % 2:
            poly = _poly_mul(poly, [1, 2, 1])
        k = _rep_degree(rep)
        return 2 * (poly[k] if k < len(poly) else 0)
    if group == "sp":
        return 0
    return query["m"] - 2 if rep == "standard" else 0


def admissible_rows(max_dim: int) -> list[dict]:
    """Independent enumeration of the Hodge-admissible table up to max_dim:
    su(p,q) standard; su(p,1) ext:k for 2 <= k <= p; sp(2g,R) standard;
    so*(2n) standard (n >= 2); so(2n-1,2) spin (n >= 2); so(2n-2,2) in
    both half-spins (n >= 3)."""
    rows = []

    def add(form, rep, dim, zero):
        if dim <= max_dim:
            rows.append({"form": form, "rep": rep, "real_dim": dim, "zero_count_real": zero})

    for total in range(2, max_dim // 2 + 1):
        for q in range(1, total // 2 + 1):
            p = total - q
            add(f"su({p},{q})", "standard", 2 * total, 2 * (p - q))
    p = 2
    while 2 * (p + 1) <= max_dim:
        for k in range(2, p + 1):
            add(f"su({p},1)", f"ext:{k}", 2 * _binom(p + 1, k),
                zero_count_real({"group": "su", "p": p, "q": 1, "rep": f"ext:{k}"}))
        p += 1
    for g in range(1, max_dim // 2 + 1):
        add(f"sp({2 * g},R)", "standard", 2 * g, 0)
    for n in range(2, max_dim // 4 + 1):
        add(f"so*({2 * n})", "standard", 4 * n, 4 if n % 2 else 0)
    n = 2
    while 2 ** n <= max_dim:
        add(f"so({2 * n - 1},2)", "spin", 2 ** n, 0)
        n += 1
    n = 3
    while 2 ** (n - 1) <= max_dim:
        add(f"so({2 * n - 2},2)", "half-spin:+", 2 ** (n - 1), 0)
        add(f"so({2 * n - 2},2)", "half-spin:-", 2 ** (n - 1), 0)
        n += 1
    rows.sort(key=lambda r: (r["real_dim"], r["form"], r["rep"]))
    return rows


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_record(text: str) -> dict:
    """Strict JSON parse: NaN, Infinity and -Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def check_verify(rc: int, record: dict) -> list[str]:
    """Problems with one `verify` record; empty when it is correct."""
    problems = []
    payload = record["payload"]
    if rc != 0:
        problems.append(f"exit code {rc}")
    if payload["verdict"] != "match":
        problems.append(f"verdict {payload['verdict']}: {payload['details']}")
    result = payload["result"]
    exps = result["exponents_real"]
    if abs(sum(exps)) > SUM_RULE_TOL * max(exps):
        problems.append(f"sum rule violated: sum {sum(exps):.3e}, lambda_max {max(exps):.3e}")
    if not result["max_sample_form_error"] < FORM_ERROR_TOL:
        problems.append(f"form error {result['max_sample_form_error']:.3e}")
    return problems


def check_predict(rc: int, record: dict, query: dict) -> list[str]:
    """Problems with one `predict` record against the closed forms."""
    problems = []
    payload = record["payload"]
    if rc != 0:
        problems.append(f"exit code {rc}")
    expected = {"real_dim": real_dim(query), "zero_count_real": zero_count_real(query)}
    if query["group"] == "su":
        k = _rep_degree(query["rep"])
        even, odd = su_zero_parity(query["p"], query["q"], k)
        half_nonzero = (_binom(query["p"] + query["q"], k) - even - odd) // 2
        expected["definite_split_real"] = [2 * even, 2 * odd]
        expected["signature_complex"] = [even + half_nonzero, odd + half_nonzero]
    for key, want in expected.items():
        if payload.get(key) != want:
            problems.append(f"{key} {payload.get(key)} != oracle {want}")
    return problems


def check_classify(rc: int, record: dict, max_dim: int) -> list[str]:
    """Problems with one `classify` record against the enumerated table."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    rows = record["payload"]["rows"]
    want = admissible_rows(max_dim)
    if rows != want:
        got = {(r["form"], r["rep"]): r for r in rows}
        exp = {(r["form"], r["rep"]): r for r in want}
        diff = sorted(k for k in got.keys() | exp.keys() if got.get(k) != exp.get(k))
        problems.append(f"{len(diff)} rows differ from the oracle table, e.g. {diff[:3]}")
    return problems
