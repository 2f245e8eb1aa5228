"""Independent brute-force implementations used as oracles.

These deliberately avoid the package's cached structure-constant tables:
they work directly from the defining formulas on raw words, with their own
pairing and canonicalization, so a bug in the fast path cannot hide."""

from fractions import Fraction

def pair(x: int, y: int) -> int:
    if y == (x ^ 1):
        return 1 if x % 2 == 0 else -1
    return 0


def canon(word: tuple) -> tuple:
    return min(word[i:] + word[:i] for i in range(len(word))) if word else ()


def oracle_schedler(word: tuple) -> dict:
    """delta of N(word) as a map (canonical, canonical) -> int, evaluated
    literally from the double sum over i < j."""
    out: dict = {}
    m = len(word)
    for i in range(m):
        for j in range(i + 1, m):
            c = pair(word[i], word[j])
            if not c:
                continue
            left = word[i + 1 : j]
            right = word[j + 1 :] + word[:i]
            if not left or not right:
                continue
            for key, s in (((canon(left), canon(right)), c), ((canon(right), canon(left)), -c)):
                out[key] = out.get(key, 0) + s
                if out[key] == 0:
                    del out[key]
    return out


def oracle_mu(word: tuple) -> dict:
    """mu of a word as a map (word, canonical necklace) -> int."""
    out: dict = {}
    m = len(word)
    for i in range(m):
        for j in range(i + 1, m):
            c = pair(word[i], word[j])
            if not c:
                continue
            neck = word[i + 1 : j]
            if not neck:
                continue
            key = (word[:i] + word[j + 1 :], canon(neck))
            out[key] = out.get(key, 0) + c
            if out[key] == 0:
                del out[key]
    return out


def oracle_necklace_action(word: tuple, target: tuple) -> dict:
    """Action of N(word) on a single word, straight from the rotation sum."""
    out: dict = {}
    m = len(word)
    for i in range(m):
        rot = word[i:] + word[:i]
        head, tail = rot[0], rot[1:]
        for pos, y in enumerate(target):
            c = pair(head, y)
            if not c:
                continue
            new = target[:pos] + tail + target[pos + 1 :]
            out[new] = out.get(new, 0) + c
            if out[new] == 0:
                del out[new]
    return out


def _axpy(acc: dict, c, terms) -> None:
    for k, v in terms:
        v = acc.get(k, 0) + c * v
        if v:
            acc[k] = v
        elif k in acc:
            del acc[k]


def oracle_solve_columns(columns, target):
    """The Fraction solver that linalg.solve_columns replaced: incremental
    reduced echelon form with back-elimination, each stored vector carrying
    its expression over the columns; free variables are 0."""
    by_lead: dict = {}  # lead row -> (stored vector, expression)

    def reduce(vec):
        rem = {r: Fraction(v) for r, v in vec.items() if v != 0}
        expr: dict = {}
        while rem:
            lead = min(rem)
            entry = by_lead.get(lead)
            if entry is None:
                break
            evec, eexpr = entry
            c = rem[lead]
            _axpy(rem, -c, evec.items())
            _axpy(expr, c, eexpr.items())
        return rem, expr

    for j, col in enumerate(columns):
        rem, expr = reduce(col)  # col = rem + sum expr * columns
        if not rem:
            continue
        lead = min(rem)
        scale = 1 / rem[lead]
        nvec = {r: v * scale for r, v in rem.items()}
        nexpr = {j: Fraction(scale)}
        _axpy(nexpr, -scale, expr.items())
        for ovec, oexpr in by_lead.values():
            cv = ovec.get(lead)
            if cv:
                _axpy(ovec, -cv, nvec.items())
                _axpy(oexpr, -cv, nexpr.items())
        by_lead[lead] = (nvec, nexpr)

    rem, expr = reduce(target)
    if rem:
        return None
    x = [0] * len(columns)
    for j, c in expr.items():
        x[j] = c
    return x
