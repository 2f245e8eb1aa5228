"""Letters and words over a symplectic alphabet.

For genus g the alphabet has 2g letters a_1, b_1, ..., a_g, b_g, encoded
as the integers 0..2g-1 with a_i -> 2(i-1) and b_i -> 2(i-1)+1.  The
encoding puts each symplectic pair on adjacent integers, so the partner of
a letter is ``x ^ 1`` and the pairing sign is determined by parity:
a_i . b_i = +1 and b_i . a_i = -1, all other pairs 0.

Words are plain tuples of letter codes.  The integer order a_1 < b_1 <
a_2 < b_2 < ... is the total order used everywhere (lexicographically
minimal rotations, Lyndon words, basis sorting).
"""

from typing import Iterator, NamedTuple

from .errors import GenusMismatch, ParseError

WordKey = tuple[int, ...]


class Letter(NamedTuple):
    """A symplectic basis letter: kind 'a' or 'b', index 1..g."""

    kind: str
    index: int

    def code(self) -> int:
        return 2 * (self.index - 1) + (0 if self.kind == "a" else 1)

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


def letter_name(code: int) -> str:
    return ("a" if code % 2 == 0 else "b") + str(code // 2 + 1)


def parse_letter(text: str, offset: int | None = None) -> int:
    """Parse 'a3' or 'b1' into a letter code."""
    if len(text) < 2 or text[0] not in "ab" or not text[1:].isdigit():
        raise ParseError(f"expected a letter like 'a1' or 'b2', got {text!r}", offset)
    index = int(text[1:])
    if index < 1:
        raise ParseError(f"letter index must be >= 1, got {text!r}", offset)
    return 2 * (index - 1) + (0 if text[0] == "a" else 1)


def pairing_sign(x: int, y: int) -> int:
    """Symplectic pairing of two letter codes: a_i.b_i = +1, b_i.a_i = -1."""
    if y == x ^ 1:
        return 1 if x % 2 == 0 else -1
    return 0


def partner(x: int) -> int:
    return x ^ 1


def check_letters(word: WordKey, g: int) -> None:
    for x in word:
        if not 0 <= x < 2 * g:
            raise GenusMismatch(f"letter {letter_name(x)} does not exist at genus {g}")


def word_name(word: WordKey) -> str:
    """Render a word as space-separated letters; the empty word is ''."""
    return " ".join(letter_name(x) for x in word)


def parse_word(text: str) -> WordKey:
    """Parse a space-separated word like 'a1 b2 a1'; '' is the empty word."""
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_letter(tok) for tok in text.split())


def rotations(word: WordKey) -> Iterator[WordKey]:
    for i in range(len(word)):
        yield word[i:] + word[:i]


def canonical_rotation(word: WordKey) -> WordKey:
    """The lexicographically minimal rotation (the necklace normal form)."""
    if len(word) <= 1:
        return word
    # the minimal rotation starts at an occurrence of the minimal letter
    a = min(word)
    i = word.index(a)
    best = word[i:] + word[:i]
    for _ in range(word.count(a) - 1):
        i = word.index(a, i + 1)
        rot = word[i:] + word[:i]
        if rot < best:
            best = rot
    return best


def rotation_class_size(word: WordKey) -> int:
    """Number of distinct rotations, i.e. the primitive period of the word."""
    m = len(word)
    for d in range(1, m + 1):
        if m % d == 0 and word == word[d:] + word[:d]:
            return d
    return m


def multidegree(word: WordKey, g: int) -> tuple[int, ...]:
    """Net a-minus-b letter count per symplectic pair.

    Every operation built from the pairing consumes one a_i together with
    one b_i, so this degree is preserved; it is used to split matrices
    into independent blocks.
    """
    deg = [0] * g
    for x in word:
        deg[x // 2] += 1 if x % 2 == 0 else -1
    return tuple(deg)
