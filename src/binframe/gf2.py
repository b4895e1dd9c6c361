"""Bit-packed vectors, matrices and exact linear algebra over GF(2).

Vectors and matrix rows are stored as Python ints with entry ``i`` in bit
``i``, so adding rows is a single XOR and a dot product is an AND plus a
popcount.  Everything is immutable; operations are pure functions, safe to
share between threads.

The integer value of a vector doubles as its catalog encoding: the vector
``(x_1, ..., x_k)`` corresponds to ``sum(x_i * 2**(i-1))``, e.g.
``(1,0,1,1) <-> 13``.
"""

from __future__ import annotations

from operator import attrgetter
from collections.abc import Iterable, Iterator, Sequence

from .errors import DimensionError

__all__ = [
    "BinVector",
    "BinMatrix",
    "AffineSolutionSet",
    "solve",
]


class _Record:
    """Base of the immutable records: the fields are the subclass's
    ``__slots__``, each set once in its ``__init__`` by
    ``object.__setattr__``.  Equality needs the exact class and equal
    fields, the hash is that of the fields, and the repr reads
    ``Name(field=value, ...)``.  Copy and pickle rebuild through
    ``__init__``, so they repeat its checks."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class BinVector(_Record):
    """An immutable vector in GF(2)^n, entries packed into ``bits``."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        if n < 1:
            raise DimensionError(f"vector dimension must be positive, got {n}")
        if bits < 0 or bits >> n:
            raise ValueError(f"bits 0x{bits:x} do not fit in dimension {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def ones(cls, n: int) -> "BinVector":
        """The all-ones vector in GF(2)^n."""
        return cls(n, (1 << n) - 1)

    @classmethod
    def basis(cls, n: int, i: int) -> "BinVector":
        """The canonical basis vector e_i (0-indexed)."""
        if not 0 <= i < n:
            raise DimensionError(f"basis index {i} out of range for dimension {n}")
        return cls(n, 1 << i)

    @classmethod
    def from_bits(cls, entries: Iterable[int]) -> "BinVector":
        bits = 0
        n = 0
        for e in entries:
            if e not in (0, 1):
                raise ValueError(f"entries must be 0 or 1, got {e!r}")
            bits |= e << n
            n += 1
        return cls(n, bits)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.n))

    def __add__(self, other: "BinVector") -> "BinVector":
        if self.n != other.n:
            raise DimensionError(f"cannot add vectors of dimension {self.n} and {other.n}")
        return BinVector(self.n, self.bits ^ other.bits)

    __xor__ = __add__

    def dot(self, other: "BinVector") -> int:
        if self.n != other.n:
            raise DimensionError(f"dot product needs equal dimensions, got {self.n} and {other.n}")
        return (self.bits & other.bits).bit_count() & 1

    def parity(self) -> int:
        """0 for an even vector, 1 for an odd one."""
        return self.bits.bit_count() & 1

    def to_bitstring(self) -> str:
        """Dense text form, entry 0 leftmost: (1,0,1,1) -> '1011'."""
        return format(self.bits, f"0{self.n}b")[::-1]

    def __str__(self) -> str:
        return self.to_bitstring()


class BinMatrix(_Record):
    """An immutable matrix over GF(2); row ``i`` packed into ``data[i]``."""

    __slots__ = ("cols", "data")

    def __init__(self, cols: int, data: tuple[int, ...]):
        if cols < 1:
            raise DimensionError(f"column count must be positive, got {cols}")
        if len(data) < 1:
            raise DimensionError("row count must be positive")
        for i, r in enumerate(data):
            if r < 0 or r >> cols:
                raise ValueError(f"row {i} has bits outside {cols} columns")
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[BinVector | Iterable[int]]) -> "BinMatrix":
        vecs = [r if isinstance(r, BinVector) else BinVector.from_bits(r) for r in rows]
        if not vecs:
            raise DimensionError("at least one vector is needed")
        n = vecs[0].n
        for i, v in enumerate(vecs):
            if v.n != n:
                raise DimensionError(f"vector {i} has dimension {v.n}, expected {n}")
        return cls(n, tuple(v.bits for v in vecs))

    @classmethod
    def from_cols(cls, columns: Iterable[BinVector | Iterable[int]]) -> "BinMatrix":
        return cls.from_rows(columns).transpose()

    @classmethod
    def identity(cls, n: int) -> "BinMatrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def all_ones(cls, rows: int, cols: int) -> "BinMatrix":
        if rows < 1 or cols < 1:
            raise DimensionError(f"shape ({rows}, {cols}) must be positive")
        return cls(cols, ((1 << cols) - 1,) * rows)

    @classmethod
    def circulant(cls, first_row: BinVector) -> "BinMatrix":
        """Circulant matrix C with C[i][j] = first_row[(j - i) mod k]."""
        k = first_row.n
        c = first_row.bits
        rows = []
        for i in range(k):
            # cyclic right-rotation of the first row by i positions
            rows.append(((c << i) | (c >> (k - i))) & ((1 << k) - 1) if i else c)
        return cls(k, tuple(rows))

    # -- basic accessors ---------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.data), self.cols)

    @property
    def is_square(self) -> bool:
        return len(self.data) == self.cols

    def entry(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entry(i, j)

    def row(self, i: int) -> BinVector:
        return BinVector(self.cols, self.data[i])

    def row_vectors(self) -> tuple[BinVector, ...]:
        return tuple(BinVector(self.cols, r) for r in self.data)

    def col_vectors(self) -> tuple[BinVector, ...]:
        return tuple(BinVector(self.rows, c) for c in self.transpose().data)

    # -- arithmetic --------------------------------------------------------

    def transpose(self) -> "BinMatrix":
        return BinMatrix(len(self.data), _columns(self.data, self.cols))

    def __add__(self, other: "BinMatrix") -> "BinMatrix":
        if self.shape != other.shape:
            raise DimensionError(f"cannot add shapes {self.shape} and {other.shape}")
        return BinMatrix(self.cols, tuple(a ^ b for a, b in zip(self.data, other.data)))

    def __matmul__(self, other: "BinMatrix") -> "BinMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply shapes {self.shape} and {other.shape}"
            )
        # Four Russians (Arlazarov et al. 1970; Albrecht, Bard and Hart,
        # ACM TOMS 37(1), 2010): for rows 8g..8g+7 of the right factor a
        # table of all 256 sums of them, indexed by byte g of a left row.
        width = (other.rows + 7) // 8
        left = [r.to_bytes(width, "little") for r in self.data]
        out = [0] * len(left)
        for g in range(width):
            table = [0]
            for r in other.data[8 * g : 8 * g + 8]:
                table += [t ^ r for t in table]
            out = [acc ^ table[row[g]] for acc, row in zip(out, left)]
        return BinMatrix(other.cols, tuple(out))

    def mul_vec(self, v: BinVector) -> BinVector:
        if self.cols != v.n:
            raise DimensionError(f"cannot apply shape {self.shape} to dimension {v.n}")
        bits = 0
        for i, r in enumerate(self.data):
            bits |= ((r & v.bits).bit_count() & 1) << i
        return BinVector(self.rows, bits)

    def is_symmetric(self) -> bool:
        return self.is_square and self.data == self.transpose().data

    def rank(self) -> int:
        return len(Echelon(self.data))

    def to_bitstring_rows(self) -> list[str]:
        fmt = f"0{self.cols}b"
        return [format(r, fmt)[::-1] for r in self.data]

    def __str__(self) -> str:
        return "\n".join(self.to_bitstring_rows())


def _columns(data: Sequence[int], cols: int) -> tuple[int, ...]:
    """The columns of the matrix with rows ``data`` and ``cols`` columns:
    bit i of column j is bit j of row i."""
    # column j is every cols-th character of the rows' bit strings,
    # last row first
    text = "".join([format(r, f"0{cols}b") for r in reversed(data)])
    return tuple([int(text[j::cols], 2) for j in range(cols - 1, -1, -1)])


class AffineSolutionSet(_Record):
    """All solutions of a consistent GF(2) system, or the empty marker.

    ``particular`` is one solution (None when the system is inconsistent)
    and ``nullbasis`` a basis of the homogeneous solutions, so the set has
    ``2 ** len(nullbasis)`` members.  Iteration walks the members in
    reflected-Gray-code order over the null-basis coefficients, starting
    from the particular solution; the order is deterministic and is relied
    on whenever an algorithm picks "the first acceptable solution".
    """

    __slots__ = ("n", "particular", "nullbasis")

    def __init__(self, n: int, particular: BinVector | None, nullbasis: tuple[BinVector, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "particular", particular)
        object.__setattr__(self, "nullbasis", nullbasis)

    @property
    def is_consistent(self) -> bool:
        return self.particular is not None

    def __len__(self) -> int:
        return 0 if self.particular is None else 1 << len(self.nullbasis)

    def __iter__(self) -> Iterator[BinVector]:
        if self.particular is None:
            return
        current = self.particular
        yield current
        for t in range(1, 1 << len(self.nullbasis)):
            flip = (t & -t).bit_length() - 1
            current = current + self.nullbasis[flip]
            yield current


class Echelon:
    """A GF(2) row space in fully reduced row-echelon form.

    Rows are ints.  Each stored row's pivot is its lowest set bit, and no
    other stored row has that bit set.  This form is unique for a given
    row space, so what is read off it depends neither on the order of the
    rows nor on the order of the elimination steps.
    """

    __slots__ = ("_rows", "_pivots")

    def __init__(self, rows: Iterable[int] = ()):
        # Gauss-Jordan elimination 8 columns at a time, the Four Russians
        # method of ``@`` (Albrecht, Bard and Hart, ACM TOMS 37(1), 2010).
        # Pending rows are zero below column c.  The block's pivot rows come
        # from the distinct 8-bit projections of the pending rows, and a
        # table of all 256 sums of them clears the block's pivot columns
        # from every other row.  That leaves the pending rows zero up to
        # column c + 8, as the pivot rows span their projections; a pending
        # row that became a pivot row clears to 0.
        pending = [r for r in rows if r]
        stored: list[int] = []
        c = 0
        while pending:
            projections = [(r >> c) & 255 for r in pending]
            # each distinct projection with the first row that has it
            found = dict(zip(reversed(projections), range(len(pending) - 1, -1, -1)))
            block: dict[int, tuple[int, int]] = {}  # pivot bit -> (projection, row)
            for p, i in found.items():
                # block rows are reduced, so bit b of p says whether to add row b
                q = p
                for b, (bp, _) in block.items():
                    if p & b:
                        q ^= bp
                if not q:
                    continue
                row = pending[i]
                for b, (_, br) in block.items():
                    if p & b:
                        row ^= br
                low = q & -q
                for b, (bp, br) in block.items():
                    if bp & low:
                        block[b] = (bp ^ q, br ^ row)
                block[low] = (q, row)
                if len(block) == 8:
                    break
            if block:
                table = [0]
                for bit in (1, 2, 4, 8, 16, 32, 64, 128):
                    table += [t ^ block[bit][1] for t in table] if bit in block else table
                pending = [x for r in pending if (x := r ^ table[(r >> c) & 255])]
                stored = [r ^ table[(r >> c) & 255] for r in stored]
                stored += [row for _, row in block.values()]
            c += 8
        self._rows = stored
        self._pivots = sum(r & -r for r in stored)

    def __len__(self) -> int:
        return len(self._rows)

    def reduced_solutions(self, cols: int) -> tuple[int, list[int]] | None:
        """Solutions of the system whose equations are the stored rows,
        with bits below ``cols`` as coefficients and bit ``cols`` as the
        right-hand side, as ints: ``(particular, null basis)``, or None
        when a pivot at bit ``cols`` or above makes it inconsistent.

        The particular solution is 0 in every free column.  The null
        basis has one vector per free column f, in ascending column
        order; vector f is 1 in column f and 0 in the other free columns.
        Both are read off the columns of the rows placed by pivot.
        """
        if self._pivots >> cols:
            return None
        by_pivot = [0] * cols
        for r in self._rows:
            by_pivot[(r & -r).bit_length() - 1] = r
        columns = _columns(by_pivot, cols + 1)
        free = [f for f in range(cols) if not (self._pivots >> f) & 1]
        return columns[cols], [(1 << f) | columns[f] for f in free]


def _impose(part: int | None, nulls: list[int], x: int) -> tuple[int | None, list[int]]:
    """A solution set ``(part, nulls)`` in the form ``reduced_solutions``
    gives, cut down by the equation (x, y) = 0, in the same form; part
    None is the empty set.

    With a_f = (x, n_f), the lowest free column f* with a_f = 1 becomes a
    pivot: n_f* leaves the basis, every other n_f with a_f = 1 and, when
    (x, part) = 1, the particular solution gain n_f*.  This is what adding
    x to the reduced echelon form does, at the cost of one dot product
    per free column.
    """
    if part is None:
        return None, []
    for i, star in enumerate(nulls):
        if (x & star).bit_count() & 1:
            break
    else:
        # (x, y) = (x, part) on the whole set
        return (None, []) if (x & part).bit_count() & 1 else (part, nulls)
    if (x & part).bit_count() & 1:
        part ^= star
    return part, nulls[:i] + [v ^ star if (x & v).bit_count() & 1 else v for v in nulls[i + 1 :]]


def solve(a: BinMatrix, b: BinVector) -> AffineSolutionSet:
    """Full solution set of ``a x = b`` over GF(2).

    Inconsistency is reported as an empty set, not an error.  The null
    basis has one vector per free column of the reduced system, listed in
    ascending column order.
    """
    if a.rows != b.n:
        raise DimensionError(
            f"system shape {a.shape} does not match right-hand side length {b.n}"
        )
    cols = a.cols
    rows = (r | (((b.bits >> i) & 1) << cols) for i, r in enumerate(a.data))
    part, nulls = Echelon(rows).reduced_solutions(cols) or (None, [])
    particular = None if part is None else BinVector(cols, part)
    return AffineSolutionSet(cols, particular, tuple(BinVector(cols, v) for v in nulls))
