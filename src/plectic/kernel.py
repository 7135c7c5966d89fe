"""The arithmetic kernel the coefficient types share.

`CoeffMap` is a sparse map key -> nonzero scalar: group-algebra elements
(classes mod I^(D+1)), their graded pieces and symmetric tensors differ in
their key shape, their product and what `_values` reads (a group-algebra
element expands its separable terms; `grpalg` alone truncates).  A plectic
invariant is a plain scalar, the committed Q_S.
"""

from .errors import ShapeMismatch
from .padic import INF


class CoeffMap:
    """Map key -> nonzero scalar.

    Subclasses add their shape fields and `_shape()`, the data two operands
    must share; a key missing from the map is an exact zero.
    """

    def __init__(self, coeffs):
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}

    def _shape(self):
        return None

    def _check(self, other):
        if type(other) is not type(self) or other._shape() != self._shape():
            raise ShapeMismatch("mixed %s shapes" % type(self).__name__)

    def _like(self, coeffs, **shape):
        """A map with this one's shape (updated by `shape`); keys are trusted."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, **shape)
        out.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}
        return out

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        return self._like({k: c * scalar for k, c in self.coeffs.items()})

    def _values(self):
        """The map compared and tested for zero (a lazy form's expansion)."""
        return self.coeffs

    def is_zero(self):
        return not self._values()

    def agreement(self, other):
        """Smallest certified key-wise agreement (INF for two zero maps)."""
        self._check(other)
        a, b = self._values(), other._values()
        margin = INF
        for k, c in a.items():
            d = b.get(k)
            margin = min(margin, c.valuation if d is None else c.agreement(d))
        for k, d in b.items():
            if k not in a:
                margin = min(margin, d.valuation)
        return margin

    def __repr__(self):
        return "%s(%r, %d terms)" % (type(self).__name__, self._shape(),
                                     len(self.coeffs))


def certified_rank(images):
    """How many leading maps of `images` a permutation certificate proves
    independent at every precision: each is one key with a unit coefficient,
    a key no earlier one has.  A count of all of them certifies full rank."""
    keys = set()
    for image in images:
        key = next(iter(image.coeffs), None)
        if len(image.coeffs) != 1 or image.coeffs[key].valuation != 0 or key in keys:
            break
        keys.add(key)
    return len(keys)
