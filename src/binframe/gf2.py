"""Bit-packed vectors, matrices and exact linear algebra over GF(2).

Vectors and matrix rows are stored as Python ints with entry ``i`` in bit
``i``, so adding rows is a single XOR and a dot product is an AND plus a
popcount.  Everything is immutable; operations are pure functions, safe to
share between threads.

The integer value of a vector doubles as its catalog encoding: the vector
``(x_1, ..., x_k)`` corresponds to ``sum(x_i * 2**(i-1))``, e.g.
``(1,0,1,1) <-> 13``.

The orthonormal-sequence construction that extension, Naimark
complements and Gram factorization share, ``_orthonormal_fill``, lives
here beside the solution sets it reads and cuts down.
"""

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
    """Base of the immutable records.  The fields are the subclass's
    ``__slots__``; ``__init__`` binds positional, then keyword arguments
    to them (``TypeError`` for a missing, unexpected or repeated field),
    sets each once, a list or an iterator as a tuple, then calls
    ``__post_init__``, where a subclass puts its checks.  ``BinVector``
    and ``BinMatrix`` keep constructors of their own, since they are built
    by the thousand in the catalog and construct loops and the binder
    costs ~0.7 us per call.  Equality needs the exact class and equal
    fields, the hash is that of the fields, and the repr reads
    ``Name(field=value, ...)``.  Copy and pickle rebuild through
    ``__init__``, so they repeat the checks."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        cls._fields = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            as_tuple = isinstance(value, list) or hasattr(value, "__next__")
            object.__setattr__(self, name, tuple(value) if as_tuple else value)
        self.__post_init__()

    def _bind(self, args, kwargs):
        """One value per field, from positional then keyword arguments."""
        names, given, where = self.__slots__, len(args), type(self).__qualname__
        if given > len(names):
            raise TypeError(f"{where}() got {given} positional values for fields {names}")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{where}() got an unexpected field {name!r}")
            if names.index(name) < given:
                raise TypeError(f"{where}() got multiple values for field {name!r}")
        for name in names[given:]:
            if name not in kwargs:
                raise TypeError(f"{where}() missing field {name!r}")
        return args + tuple(kwargs[name] for name in names[given:])

    def __post_init__(self):
        pass

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
        if not isinstance(other, BinVector):
            return NotImplemented
        if self.n != other.n:
            raise DimensionError(f"cannot add vectors of dimension {self.n} and {other.n}")
        return BinVector(self.n, self.bits ^ other.bits)

    def dot(self, other: "BinVector") -> int:
        if self.n != other.n:
            raise DimensionError(f"dot product needs equal dimensions, got {self.n} and {other.n}")
        return (self.bits & other.bits).bit_count() & 1

    def to_bitstring(self) -> str:
        """Dense text form, entry 0 leftmost: (1,0,1,1) -> '1011'."""
        return format(self.bits, f"0{self.n}b")[::-1]

    def __str__(self) -> str:
        return self.to_bitstring()


class BinMatrix(_Record):
    """An immutable matrix over GF(2); row ``i`` packed into ``data[i]``."""

    __slots__ = ("cols", "data")

    def __init__(self, cols: int, data: Iterable[int]):
        # a list is copied, so it hashes and stays as checked; tuple(t) is t
        data = tuple(data)
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
        return cls(n, (v.bits for v in vecs))

    @classmethod
    def from_cols(cls, columns: Iterable[BinVector | Iterable[int]]) -> "BinMatrix":
        return cls.from_rows(columns).transpose()

    @classmethod
    def identity(cls, n: int) -> "BinMatrix":
        return cls(n, (1 << i for i in range(n)))

    @classmethod
    def all_ones(cls, rows: int, cols: int) -> "BinMatrix":
        if rows < 1 or cols < 1:
            raise DimensionError(f"shape ({rows}, {cols}) must be positive")
        return cls(cols, ((1 << cols) - 1,) * rows)

    @classmethod
    def circulant(cls, first_row: BinVector) -> "BinMatrix":
        """Circulant matrix C with C[i][j] = first_row[(j - i) mod k]."""
        k, c = first_row.n, first_row.bits
        # row i is the first row cyclically rotated right by i positions
        return cls(k, (((c << i) | (c >> (k - i))) & ((1 << k) - 1) for i in range(k)))

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

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return (self.data[i] >> j) & 1

    def row_vectors(self) -> tuple[BinVector, ...]:
        return tuple(BinVector(self.cols, r) for r in self.data)

    # -- arithmetic --------------------------------------------------------

    def transpose(self) -> "BinMatrix":
        return BinMatrix(len(self.data), _columns(self.data, self.cols))

    def __add__(self, other: "BinMatrix") -> "BinMatrix":
        if not isinstance(other, BinMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionError(f"cannot add shapes {self.shape} and {other.shape}")
        return BinMatrix(self.cols, (a ^ b for a, b in zip(self.data, other.data)))

    def __matmul__(self, other: "BinMatrix") -> "BinMatrix":
        if not isinstance(other, BinMatrix):
            return NotImplemented
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
        return BinMatrix(other.cols, out)

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
        return len(_echelon(self.data))

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


def _echelon(rows: Iterable[int]) -> list[int]:
    """The GF(2) row space of ``rows`` in fully reduced row-echelon form.

    Rows are ints.  Each returned row's pivot is its lowest set bit, and
    no other returned row has that bit set.  This form is unique for a
    given row space, so what is read off it depends neither on the order
    of the rows nor on the order of the elimination steps.
    """
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
        # each distinct projection with the first row that has it
        first = dict(zip([(r >> c) & 255 for r in reversed(pending)], reversed(pending)))
        block: dict[int, tuple[int, int]] = {}  # pivot bit -> (projection, row)
        for p, row in first.items():
            # block rows are reduced, so adding row b clears pivot bit b alone
            for b, (bp, br) in block.items():
                if p & b:
                    p ^= bp
                    row ^= br
            if p:
                low = p & -p
                for b, (bp, br) in block.items():
                    if bp & low:
                        block[b] = (bp ^ p, br ^ row)
                block[low] = (p, row)
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
    return stored


def _solutions(rows: Iterable[int], cols: int) -> tuple[int | None, list[int]]:
    """Solutions of the system whose equations are ``rows``, with bits
    below ``cols`` as coefficients and bit ``cols`` as the right-hand
    side, as ints: ``(particular, null basis)``, or ``(None, [])`` when a
    pivot at bit ``cols`` or above makes it inconsistent.

    The particular solution is 0 in every free column.  The null basis
    has one vector per free column f, in ascending column order; vector
    f is 1 in column f and 0 in the other free columns.  Both are read
    off the columns of the reduced rows placed by pivot.
    """
    reduced = _echelon(rows)
    pivots = sum(r & -r for r in reduced)
    if pivots >> cols:
        return None, []
    by_pivot = [0] * cols
    for r in reduced:
        by_pivot[(r & -r).bit_length() - 1] = r
    columns = _columns(by_pivot, cols + 1)
    free = [f for f in range(cols) if not (pivots >> f) & 1]
    return columns[cols], [(1 << f) | columns[f] for f in free]


def _impose(part: int | None, nulls: list[int], x: int) -> tuple[int | None, list[int]]:
    """A solution set ``(part, nulls)`` in the form ``_solutions`` gives,
    cut down by the equation (x, y) = 0, in the same form.

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


def _orthonormal_fill(k: int, constraints: Sequence[int], start: Sequence[int], target: int) -> list[int]:
    """Extend the orthonormal vectors ``start`` in GF(2)^k by odd vectors,
    each orthogonal to the others and to every row of ``constraints``,
    until no further vector fits.

    Each new vector is the first Gray-code-ordered solution of the stacked
    system (constraints; vectors so far; all-ones row) x = (0; 0; 1),
    except that while room remains (two or more vectors still to come) the
    unique solution that makes the running sum equal ``target`` is
    skipped: it alone would leave the next system inconsistent.  The
    solution set is read off once, from one echelon of the constraints,
    the all-ones row and ``start``; each vector x found then cuts it down
    by the equation (x, y) = 0, which takes one dimension, and the last
    vector takes the particular solution.  The reduced solution set is
    unique, like the reduced echelon form, so this picks the vectors that
    solving each system afresh would.
    """
    part, nulls = _solutions([*constraints, ((1 << k) - 1) | (1 << k), *start], k)
    found = list(start)
    n = len(found) + (part is not None) + len(nulls)
    total = 0
    for v in found:
        total ^= v
    for s in range(len(found), n):
        if part is None:
            raise RuntimeError(f"no admissible vector {s + 1} of {n} in GF(2)^{k}")
        # the first Gray-code member, or the second (nulls holds n - s - 1
        # vectors) when the first would make the running sum the target
        x = part if s == n - 1 or total ^ part != target else part ^ nulls[0]
        found.append(x)
        part, nulls = _impose(part, nulls, x)
        total ^= x
    return found


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
    part, nulls = _solutions(rows, cols)
    particular = None if part is None else BinVector(cols, part)
    return AffineSolutionSet(cols, particular, tuple(BinVector(cols, v) for v in nulls))
