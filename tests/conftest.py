"""Fixtures shared by the test modules."""

import pytest

from qbracket import PrimeContext, core


@pytest.fixture
def vector_products(monkeypatch) -> dict:
    """Counts of every vector product from here on: _vec_mul calls, Horner
    kernel steps (each one product by the pass's fixed multiplier), and in
    each block pass every coefficient times a power of dz, counted as it is
    taken, and each accumulator times dz^B that joins two blocks."""
    counts = dict.fromkeys(("vec_mul", "step", "block", "join"), 0)
    vec_mul, horner_step = PrimeContext._vec_mul, PrimeContext._horner_step
    block_pass = PrimeContext._block_pass

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    class Counted(int):
        def __mul__(self, other):
            counts["block"] += 1
            return int(self) * other

    def counted_pass(ctx, coeffs, n, d, rel, w):
        counts["join"] += (n - 1) // core._BLOCK
        return block_pass(ctx, [Counted(x) for x in coeffs], n, d, rel, w)

    monkeypatch.setattr(PrimeContext, "_vec_mul", counted("vec_mul", vec_mul))
    monkeypatch.setattr(PrimeContext, "_horner_step",
                        lambda ctx, d, rel: counted("step", horner_step(ctx, d, rel)))
    monkeypatch.setattr(PrimeContext, "_block_pass", counted_pass)
    return counts
