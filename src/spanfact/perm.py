"""Exact permutation algebra on {0..n-1} and word evaluation.

Conventions fixed project-wide:

* A permutation is stored as its image array: ``images[v]`` is the image
  of point ``v``.  Up to 256 points the array is ``bytes``, and a product
  is one ``bytes.translate``: ``f.translate(g padded to 256 bytes)`` is g f.
  Only a degree above 256 has points that no byte holds; its array is a
  tuple, and its product is ``itemgetter(*f)(g)``.
* The product ``compose(g, f)`` applies ``f`` first:
  ``compose(g, f)(v) = g(f(v))``.
* A word is a tuple of factor symbols drawn from ``1, 2`` (and ``-1, -2``
  for inverse factors), stored in composition order: the *rightmost*
  symbol is applied first, so ``(2, 1)`` means "F2 after F1".

"Do two permutations agree at some point?" is asked two ways.  A set that
grows and shrinks one image at a time, as in the relocatable-tree kernel and
the sharply transitive search, is an ``ImageBlob``: it packs the image arrays
into one integer and tests a new image against all of them with one SWAR
zero-lane test.  A whole list is read by columns: ``first_agreeing_pair``
looks for a repeated value among the images of each point.
"""
from __future__ import annotations

import re
from array import array
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import SizeMismatchError

Word = tuple[int, ...]

_from_bytes = int.from_bytes


class Perm:
    """An immutable bijection on {0..n-1}."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int], check: bool = True):
        if check:
            images = tuple(images)
            if sorted(images) != list(range(len(images))):
                raise ValueError(f"not a permutation image array: {images!r}")
        _set_images(self, _image_array(images))

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(n), check=False)

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        images = list(range(n))
        touched = set()
        for cycle in cycles:
            for i, v in enumerate(cycle):
                if not (0 <= v < n):
                    raise ValueError(f"point {v} out of range for degree {n}")
                if v in touched:
                    raise ValueError(f"point {v} appears in two cycles")
                touched.add(v)
                images[v] = cycle[(i + 1) % len(cycle)]
        return cls(images, check=False)

    def __call__(self, v: int) -> int:
        return self.images[v]

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({list(self.images)})"

    def __str__(self) -> str:
        return cycle_string(self)

    def is_identity(self) -> bool:
        return all(img == v for v, img in enumerate(self.images))

    def inverse(self) -> "Perm":
        images = self.images
        if type(images) is bytes:
            n = len(images)
            return _wrap(bytes.maketrans(images, _POINTS[:n])[:n])
        out = [0] * len(images)
        for v, img in enumerate(images):
            out[img] = v
        return _wrap(tuple(out))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its minimum point, sorted by minimum."""
        n = self.n
        seen = [False] * n
        out = []
        for start in range(n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            v = self.images[start]
            while v != start:
                cyc.append(v)
                seen[v] = True
                v = self.images[v]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """Multiset of cycle lengths, ascending."""
        return images_cycle_type(self.images)

    def is_derangement(self) -> bool:
        return all(img != v for v, img in enumerate(self.images))


_set_images = Perm.images.__set__
_new = object.__new__
_POINTS = bytes(range(256))


def _wrap(images: bytes | tuple[int, ...]) -> Perm:
    """The Perm with this image array, already in its stored form."""
    p = _new(Perm)
    _set_images(p, images)
    return p


def _image_array(images: Iterable[int]) -> bytes | tuple[int, ...]:
    """The stored form of an image array: ``bytes`` up to 256 points, else
    a tuple."""
    if type(images) is not bytes:
        images = tuple(images)
        if len(images) <= 256:
            images = bytes(images)
    return images


def compose_images(gi: bytes | tuple[int, ...], fi: bytes | tuple[int, ...]) -> bytes | tuple[int, ...]:
    """The image array of gf from those of g and f, of one degree, in the
    stored form: one C call either way, as a tuple of more than 256 points
    makes itemgetter return a tuple."""
    if type(fi) is bytes:
        return fi.translate(gi.ljust(256, b"\0"))
    return itemgetter(*fi)(gi)


def images_cycle_type(images: Sequence[int]) -> tuple[int, ...]:
    """Multiset of cycle lengths, ascending, of the permutation with this
    image list."""
    seen = bytearray(len(images))
    lengths = []
    start = seen.find(0)
    while start >= 0:
        length = 0
        v = start
        while not seen[v]:
            seen[v] = 1
            v = images[v]
            length += 1
        lengths.append(length)
        start = seen.find(0, start)
    return tuple(sorted(lengths))


def compose(g: Perm, f: Perm) -> Perm:
    """Product gf: applies f first, then g."""
    gi, fi = g.images, f.images
    if len(gi) != len(fi):
        raise SizeMismatchError(f"degree mismatch: {len(gi)} != {len(fi)}")
    return _wrap(compose_images(gi, fi))


class ImageBlob:
    """Image arrays of one degree n packed into one integer, image i in lanes
    [i*n, (i+1)*n), so that "does this image agree with some packed image at
    some point?" is one SWAR (SIMD within a register) test.  It serves the
    incremental tests, where images are pushed and popped one at a time;
    all-pairs questions read columns (``first_agreeing_pair``).

    A lane is the narrowest array item that holds the points 0..n-1: 1 byte
    up to 256 points, 2 bytes up to 65,536.  With image e repeated once per
    packed image, x = rep(e) ^ value has a zero lane exactly where e agrees
    with a packed image.  ``(x - low) & ~x & high``, with low and high the
    lowest and the highest bit of every lane ("haszero", Bit Twiddling
    Hacks), is nonzero iff some lane of x is zero, and its lowest set bit
    lies in the lowest zero lane: the lanes below it borrow nothing.  low and
    high cover the lanes of the packed images and follow push and pop.
    """

    __slots__ = ("n", "count", "value", "_low", "_high", "_code", "_lane_bits", "_image_bits", "_image_low")

    def __init__(self, n: int, images: Iterable[Sequence[int]] = ()):
        self.n = n
        self.count = 0
        self.value = self._low = self._high = 0
        self._code = next(c for c in "BHILQ" if array(c).itemsize * 8 >= (n - 1).bit_length())
        width = array(self._code).itemsize
        self._lane_bits = 8 * width
        self._image_bits = n * self._lane_bits
        # lanes are read little-endian whatever the host order: a big-endian
        # host holds every point byte-swapped, which keeps lane equality
        self._image_low = _from_bytes((1).to_bytes(width, "little") * n, "little")
        for image in images:
            self.push(image)

    def pack(self, image: Sequence[int]) -> bytes:
        """image in lane form, as ``agrees_packed`` takes it.  With 1-byte
        lanes (n <= 256) a ``bytes`` image, as a Perm stores it, is its own
        lane form."""
        if type(image) is bytes and self._lane_bits == 8:
            return image
        return array(self._code, image).tobytes()

    def push(self, image: Sequence[int]) -> None:
        """Pack image as the last image."""
        shift = self.count * self._image_bits
        self.value |= _from_bytes(self.pack(image), "little") << shift
        self._low |= self._image_low << shift
        self._high = self._low << (self._lane_bits - 1)
        self.count += 1

    def pop(self) -> None:
        """Drop the last packed image."""
        self.count -= 1
        keep = (1 << (self.count * self._image_bits)) - 1
        self.value &= keep
        self._low &= keep
        self._high &= keep

    def agrees_packed(self, packed: bytes) -> int:
        """Nonzero iff the image in lane form ``packed`` agrees with some
        packed image at some point."""
        x = _from_bytes(packed * self.count, "little") ^ self.value
        return (x - self._low) & ~x & self._high


def first_agreeing_pair(images: Sequence[Sequence[int]]) -> tuple[int, int] | None:
    """The least index pair i < j, in lexicographic order, such that images i
    and j agree at some point; None when every pair disagrees everywhere.

    Each point's column of k images is read once, and a column of k distinct
    values is skipped.  A repeat j of a value pairs with the first index i
    holding that value: a pair (i', j) agreeing in that column has i <= i',
    so the least agreeing pair is the least (i, j) found over all columns."""
    k = len(images)
    pairs = []
    for column in zip(*images):
        if len(set(column)) < k:
            first: dict[int, int] = {}
            for j, value in enumerate(column):
                i = first.setdefault(value, j)
                if i < j:
                    pairs.append((i, j))
    return min(pairs, default=None)


def evaluate(word: Word, f1: Perm, f2: Perm) -> Perm:
    """Evaluate a word over factor symbols; symbols apply right to left."""
    if f1.n != f2.n:
        raise SizeMismatchError(f"degree mismatch: {f1.n} != {f2.n}")
    factors = {1: f1, 2: f2, -1: f1.inverse(), -2: f2.inverse()}
    acc = Perm.identity(f1.n)
    for sym in reversed(word):
        if sym not in factors:
            raise ValueError(f"bad word symbol {sym!r}")
        acc = compose(factors[sym], acc)
    return acc


_WORD_SYMBOLS = {1: "1", 2: "2", -1: "1'", -2: "2'"}


def word_str(word: Word) -> str:
    """Render a word in application order; inverse symbols get a trailing apostrophe.

    ``(2, 1)`` (F2 after F1) renders as ``"12"``; the empty word renders as ``"-"``.
    """
    try:
        return "".join(map(_WORD_SYMBOLS.__getitem__, reversed(word))) or "-"
    except KeyError as exc:
        raise ValueError(f"bad word symbol {exc.args[0]!r}") from None


def parse_word(text: str) -> Word:
    """Inverse of word_str."""
    text = text.strip()
    if text in ("", "-"):
        return ()
    syms = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch not in "12":
            raise ValueError(f"bad word character {ch!r} in {text!r}")
        sym = int(ch)
        if i + 1 < len(text) and text[i + 1] == "'":
            sym = -sym
            i += 1
        syms.append(sym)
        i += 1
    return tuple(reversed(syms))


# --- text forms -------------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_ONELINE_RE = re.compile(r"^\[([^\[\]]*)\]$")


def cycle_string(p: Perm) -> str:
    """Cycle-notation text form; fixed points omitted; identity is '()'."""
    parts = [
        "(" + " ".join(str(v) for v in cyc) + ")"
        for cyc in p.cycles()
        if len(cyc) > 1
    ]
    return "".join(parts) if parts else "()"


def parse_perm(text: str, n: int | None = None) -> Perm:
    """Parse cycle notation like '(0 2)(1 3)' or one-line form '[2,3,0,1]'.

    For cycle notation the degree is max point + 1 unless n is given.
    """
    text = text.strip()
    m = _ONELINE_RE.match(text)
    if m:
        body = m.group(1).strip()
        images = [int(tok) for tok in body.split(",")] if body else []
        if n is not None and len(images) != n:
            raise ValueError(f"one-line form has {len(images)} points, expected {n}")
        return Perm(images)
    if text == "()":
        return Perm.identity(n if n is not None else 0)
    rest = _CYCLE_RE.sub("", text)
    if rest.strip():
        raise ValueError(f"unparsable permutation text {text!r}: leftover {rest.strip()!r}")
    cycles = []
    for m in _CYCLE_RE.finditer(text):
        body = m.group(1).replace(",", " ").split()
        if not body:
            continue
        cycles.append([int(tok) for tok in body])
    points = [v for cyc in cycles for v in cyc]
    degree = (max(points) + 1) if points else 0
    if n is not None:
        if points and max(points) >= n:
            raise ValueError(f"point {max(points)} out of range for degree {n}")
        degree = n
    return Perm.from_cycles(degree, cycles)
