"""Fixtures shared by the test modules."""

import pytest

from qbracket import PrimeContext


@pytest.fixture
def vector_products(monkeypatch) -> dict:
    """Counts of every vector product from here on: _vec_mul calls, Horner
    kernel steps (each one product by the pass's fixed multiplier), in
    each block pass every coefficient times a power of dz and each
    accumulator times dz^B that joins two blocks, and in each power sum of
    exp and log1p every scalar times a packed power of u and each packed
    accumulator times u^b that joins two blocks, all counted as they are
    taken."""
    counts = dict.fromkeys(("vec_mul", "step", "block", "join", "power_term", "power_join"), 0)
    vec_mul, horner_step = PrimeContext._vec_mul, PrimeContext._horner_step
    block_pass, packed_powers = PrimeContext._block_pass, PrimeContext._packed_powers

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    class Counted(int):
        def __mul__(self, other):
            counts["block"] += 1
            return int(self) * other

    class Power(int):  # a packed power d^j, 0 < j < n, of _packed_powers
        def __mul__(self, other):
            counts["power_term"] += 1
            return int(self) * other

    class Join(int):  # d^n, which a split pass pops to join its blocks
        def __mul__(self, other):
            counts["power_join"] += 1
            return int(self) * other

    def counted_powers(ctx, d, rel, n, w):
        # int * Power takes int's product: the block pass multiplies by
        # powers from the right and is counted on its own
        one, *pows, top = packed_powers(ctx, d, rel, n, w)
        return [one] + [Power(x) for x in pows] + [Join(top)]

    def counted_pass(ctx, coeffs, n, d, rel, w):
        # the joins a block pass takes are counted as taken, then moved
        before = counts["power_join"]
        out = block_pass(ctx, [Counted(x) for x in coeffs], n, d, rel, w)
        counts["join"] += counts["power_join"] - before
        counts["power_join"] = before
        return out

    monkeypatch.setattr(PrimeContext, "_vec_mul", counted("vec_mul", vec_mul))
    monkeypatch.setattr(PrimeContext, "_horner_step",
                        lambda ctx, d, rel: counted("step", horner_step(ctx, d, rel)))
    monkeypatch.setattr(PrimeContext, "_block_pass", counted_pass)
    monkeypatch.setattr(PrimeContext, "_packed_powers", counted_powers)
    return counts
