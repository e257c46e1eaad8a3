"""Output checks that do not trust the code under test.

Every check reads the text the CLI printed and compares it with a closed form,
with another CLI mode, or with a digest recorded from the seed commit.  None
of them calls back into ``snakeq``.  Each check returns a list of problem
descriptions, empty when the output passed; the ``check_*`` functions for
expansions also return the parsed terms that the cross-mode checks use.
"""

from __future__ import annotations

import hashlib

Terms = dict[tuple[int, ...], dict[int, int]]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _ints(csv: str) -> list[int]:
    return [int(part) for part in csv.split(",")] if csv else []


def _parse_term(line: str) -> tuple[tuple[int, ...], dict[int, int]]:
    exponent, pairs = line.split("|")
    flat = _ints(pairs)
    if len(flat) % 2:
        raise ValueError(f"odd coefficient list in {line!r}")
    coeff = dict(zip(flat[0::2], flat[1::2]))
    if len(coeff) * 2 != len(flat):
        raise ValueError(f"repeated q-power in {line!r}")
    return tuple(_ints(exponent)), coeff


def parse_terms(lines: list[str]) -> Terms:
    """Machine term lines ``a,b,...|s,c,s,c,...`` to {exponent: {s: c}}."""
    terms: Terms = {}
    for line in lines:
        exponent, coeff = _parse_term(line)
        if exponent in terms:
            raise ValueError(f"exponent {exponent} printed twice")
        terms[exponent] = coeff
    return terms


def specialize(terms: Terms) -> dict[tuple[int, ...], int]:
    return {e: sum(c.values()) for e, c in terms.items()}


def term_problems(terms: Terms, matchings: int, n_terms: int) -> list[str]:
    """Count, positivity, bar-invariance and ordering of a term table."""
    problems = []
    total = sum(specialize(terms).values())
    if total != matchings:
        problems.append(f"q=1 coefficients sum to {total}, closed form says {matchings}")
    if len(terms) != n_terms:
        problems.append(f"{len(terms)} terms, expected {n_terms}")
    for exponent, coeff in terms.items():
        if any(c <= 0 for c in coeff.values()):
            problems.append(f"nonpositive coefficient at {exponent}: {coeff}")
        if any(coeff.get(-s) != c for s, c in coeff.items()):
            problems.append(f"coefficient at {exponent} is not bar-invariant: {coeff}")
    if list(terms) != sorted(terms, reverse=True):
        problems.append("terms are not in lex-descending order")
    return problems


def check_quantum(out: str, matchings: int, n_terms: int) -> tuple[Terms | None, list[str]]:
    try:
        terms = parse_terms(out.splitlines())
    except ValueError as exc:
        return None, [f"unparsable quantum output: {exc}"]
    return terms, term_problems(terms, matchings, n_terms)


def check_commutative(out: str, matchings: int, n_terms: int) -> tuple[Terms | None, list[str]]:
    try:
        terms = parse_terms(out.splitlines())
    except ValueError as exc:
        return None, [f"unparsable commutative output: {exc}"]
    problems = [
        f"commutative coefficient at {e} carries a q-power: {c}"
        for e, c in terms.items()
        if set(c) != {0}
    ]
    total = sum(specialize(terms).values())
    if total != matchings:
        problems.append(f"coefficients sum to {total}, closed form says {matchings}")
    if len(terms) != n_terms:
        problems.append(f"{len(terms)} terms, expected {n_terms}")
    return terms, problems


def check_audit(out: str, matchings: int, n_terms: int) -> tuple[Terms | None, list[str]]:
    """Audit rows ``bits|exponent|v`` followed by the quantum term lines.

    The rows are summed independently (X^a with q-power v/2 per row) and must
    reproduce the term lines printed after them.
    """
    rows: list[str] = []
    term_lines: list[str] = []
    for line in out.splitlines():
        (rows if line.count("|") == 2 else term_lines).append(line)
    problems = []
    if len(rows) != matchings:
        problems.append(f"{len(rows)} audit rows, closed form says {matchings}")
    summed: Terms = {}
    bits_seen = set()
    try:
        for row in rows:
            bits, exponent, value = row.split("|")
            bits_seen.add(bits)
            coeff = summed.setdefault(tuple(_ints(exponent)), {})
            coeff[int(value)] = coeff.get(int(value), 0) + 1
        terms = parse_terms(term_lines)
    except ValueError as exc:
        return None, problems + [f"unparsable audit output: {exc}"]
    if len(bits_seen) != len(rows):
        problems.append("two audit rows print the same matching")
    if len({len(b) for b in bits_seen}) > 1:
        problems.append("audit rows have bit strings of different lengths")
    if summed != terms:
        problems.append("audit rows do not sum to the printed expansion")
    return terms, problems + term_problems(terms, matchings, n_terms)


def _q_power(s: int) -> str:
    if s == 0:
        return "1"
    if s == 2:
        return "q"
    return f"q^{s // 2}" if s % 2 == 0 else f"q^({s}/2)"


def _coeff_text(coeff: dict[int, int]) -> str:
    parts = []
    for s in sorted(coeff):
        c, power = coeff[s], _q_power(s)
        if power == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(power)
        elif c == -1:
            parts.append(f"-{power}")
        else:
            parts.append(f"{c}·{power}")
    return " + ".join(parts)


def render(terms: Terms) -> str:
    """The human-readable form ``verify`` prints, rebuilt from machine terms."""
    if not terms:
        return "0"
    rendered = []
    for exponent in sorted(terms, reverse=True):
        coeff = terms[exponent]
        body = "X^(" + ",".join(str(v) for v in exponent) + ")"
        text = _coeff_text(coeff)
        if text == "1":
            rendered.append(body)
        elif len(coeff) == 1:
            rendered.append(f"{text}·{body}")
        else:
            rendered.append(f"({text})·{body}")
    return " + ".join(rendered)


def check_verify(out: str, code: int, slot: int, quantum: Terms | None) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"verify exited {code}")
    lines = out.splitlines()
    if not lines or lines[0] != f"ok: slot {slot} matches":
        problems.append(f"verify printed {lines[:1]!r} instead of an ok line")
    if quantum is None:
        problems.append("no expand --quantum output to compare verify with")
    elif lines[1:] != [render(quantum)]:
        problems.append("verify polynomial differs from expand --quantum")
    return problems


def cross_problems(quantum: Terms | None, commutative: Terms | None) -> list[str]:
    """The q=1 specialization of the quantum output equals the commutative one."""
    if quantum is None or commutative is None:
        return []
    if specialize(quantum) != specialize(commutative):
        return ["q=1 specialization of --quantum differs from the commutative output"]
    return []
