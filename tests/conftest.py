"""Fixtures and helpers shared by the test modules."""

import pytest

from qbracket import PrimeContext


def patch_kernel(monkeypatch, name: str, wrap) -> None:
    """Replace kernel ``name`` (``_vec_mul``, ``_vec_val`` or ``_unit_pow``)
    by ``wrap(kernel)`` in every kernel set of ``PrimeContext._KERNELS``.  A
    context binds its set when it is built, so the wrapped kernel reaches
    only the contexts built after the patch."""
    for kernels in PrimeContext._KERNELS.values():
        monkeypatch.setitem(kernels, name, wrap(kernels[name]))


def sees_one_product(ctx, count) -> bool:
    """Whether a counter of ``_vec_mul`` calls reaches ctx's kernel set:
    ``count()`` reads the counter, which one product by ctx's own
    ``_vec_mul`` must move by one.  A test that asserts a kernel is not
    called checks this first, so a patch that missed cannot pass."""
    before = count()
    ctx._vec_mul([1] * ctx._dim, [1] * ctx._dim)
    return count() == before + 1


@pytest.fixture
def vector_products(monkeypatch) -> dict:
    """Counts of every vector product from here on: _vec_mul calls, Horner
    kernel steps (each one product by the pass's fixed multiplier), in
    each block pass every coefficient times a power of dz and each
    accumulator times dz^B that joins two blocks, and in each power sum of
    exp and log1p every scalar times a packed power of u and each packed
    accumulator times u^b that joins two blocks, all counted as they are
    taken.  Only the contexts built after the fixture count their
    _vec_mul calls (``patch_kernel``)."""
    counts = dict.fromkeys(("vec_mul", "step", "block", "join", "power_term", "power_join"), 0)
    horner_step = PrimeContext._horner_step
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

    patch_kernel(monkeypatch, "_vec_mul", lambda vec_mul: counted("vec_mul", vec_mul))
    monkeypatch.setattr(PrimeContext, "_horner_step",
                        lambda ctx, d, rel: counted("step", horner_step(ctx, d, rel)))
    monkeypatch.setattr(PrimeContext, "_block_pass", counted_pass)
    monkeypatch.setattr(PrimeContext, "_packed_powers", counted_powers)
    return counts
