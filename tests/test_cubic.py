"""Root solver for z^3 + m z^2 + n z + h."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from infodelay.cubic import cubic_roots, cubic_roots_array, real_positive_mask

_f = dict(allow_nan=False, allow_infinity=False)
coeff = st.floats(-20.0, 20.0, **_f)
root = st.floats(-5.0, 5.0, **_f)


def _poly(z, m, n, h):
    return ((z + m) * z + n) * z + h


@given(coeff, coeff, coeff)
# close roots next to z = 0: a depressed-cubic (Cardano) solver cancels
# these into a spurious complex pair or a lost positive root
@example(3.0, 1e-8, 0.0)
@example(-3.0, 1e-8, 0.0)
@example(19.484730965345065, 1e-6, 0.0)
@settings(max_examples=300, derandomize=True)
def test_roots_satisfy_polynomial(m, n, h):
    roots = cubic_roots(m, n, h)
    assert len(roots) == 3
    scale = 1.0 + max(abs(m), abs(n), abs(h))
    for z in roots:
        assert abs(_poly(z, m, n, h)) < 1e-8 * scale * (1.0 + abs(z)) ** 3


@given(root, root, root)
@settings(max_examples=300)
def test_known_real_roots_recovered(r1, r2, r3):
    # skip clustered roots: recovery there is limited by conditioning
    assume(min(abs(r1 - r2), abs(r1 - r3), abs(r2 - r3)) > 0.05)
    m = -(r1 + r2 + r3)
    n = r1 * r2 + r1 * r3 + r2 * r3
    h = -r1 * r2 * r3
    got = sorted(z.real for z in cubic_roots(m, n, h))
    want = sorted([r1, r2, r3])
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-6
    assert max(abs(z.imag) for z in cubic_roots(m, n, h)) < 1e-8


def test_complex_pair():
    # roots 2 and 1 +- 3i
    m, n, h = -4.0, 14.0, -20.0
    roots = sorted(cubic_roots(m, n, h), key=lambda z: (z.real, z.imag))
    assert abs(roots[0] - (1 - 3j)) < 1e-12
    assert abs(roots[1] - (1 + 3j)) < 1e-12
    assert abs(roots[2] - 2) < 1e-12


def test_exact_triple_root():
    # (z - 2)^3: the depressed cubic degenerates to t^3 = 0 exactly
    roots = cubic_roots(-6.0, 12.0, -8.0)
    assert all(z == 2.0 for z in roots)


def test_double_plus_simple_root():
    # (z - 1)^2 (z - 4): discriminant lands exactly on zero for these
    # coefficients, so the pair comes back clean
    roots = sorted(cubic_roots(-6.0, 9.0, -4.0), key=lambda z: z.real)
    assert abs(roots[0] - 1.0) < 1e-9
    assert abs(roots[1] - 1.0) < 1e-9
    assert abs(roots[2] - 4.0) < 1e-9


def test_real_positive_filter():
    cases = [(-2.0, -5.0, 6.0), (-4.0, 14.0, -20.0), (6.0, 11.0, 6.0), (3.0, 1e-8, 0.0),
             (-3.0, 1e-8, 0.0)]
    roots = cubic_roots_array(*(np.array(col) for col in zip(*cases)))
    got = [row.real[mask].tolist() for row, mask in zip(roots, real_positive_mask(roots))]

    # roots -2, 1, 3: only the positive reals pass the filter
    assert len(got[0]) == 2
    assert np.allclose(sorted(got[0]), [1.0, 3.0], atol=1e-10)

    # roots 2 and 1 +- 3i: the complex pair is excluded
    assert len(got[1]) == 1
    assert np.allclose(got[1], [2.0], atol=1e-10)

    # all roots negative
    assert got[2] == []

    # roots 0, -3.3e-9 and -3: no positive root may be invented
    assert got[3] == []

    # roots 0, 3.3e-9 and 3: the tiny positive root must survive
    assert len(got[4]) == 2
    assert np.isclose(got[4][0], 1e-8 / 3.0, rtol=1e-6, atol=0.0)
    assert np.isclose(got[4][1], 3.0, rtol=1e-6, atol=0.0)


def test_array_rows_equal_one_cubic_calls():
    # each row of a batch is exactly the one-cubic answer, whichever rows
    # stop their Newton iterates early: h = 0, a start on the root,
    # multiple roots, a complex pair, a large root, random cubics
    rng = np.random.default_rng(3)
    coeffs = [(3.0, 1e-8, 0.0), (-6.0, 12.0, -8.0), (-6.0, 9.0, -4.0),
              (-4.0, 14.0, -20.0), (0.0, 0.0, 0.0), (-3.0, 0.0, 1.0),
              (1e6, 1.0, -1.0), (-2.0, -5.0, 6.0)]
    coeffs += [tuple(row) for row in rng.uniform(-20.0, 20.0, size=(200, 3))]
    m, n, h = (np.array(col) for col in zip(*coeffs))
    roots = cubic_roots_array(m, n, h)
    assert roots.shape == (len(coeffs), 3)
    keep = real_positive_mask(roots)
    for row, mask, (mi, ni, hi) in zip(roots, keep, coeffs):
        one = np.array(cubic_roots(mi, ni, hi))
        assert row.tolist() == one.tolist()
        assert row.real[mask].tolist() == one.real[real_positive_mask(one)].tolist()
