"""Slow, direct test oracles for library functions.

enumerate_generators lists every generator of the surface through the
transversal scan at the surface points of one plane; count_E3_naive counts the
points of Y^2 = X^3 - X by a double loop.  The tests compare the library's
faster routes against them.
"""

from __future__ import annotations

from hemisys import pg3
from hemisys.gf import FieldCtx


def enumerate_generators(frame: pg3.HermitianFrame, force: bool = False) -> list:
    """All generator keys; intended for q <= 7 unless force is set.

    Every line meets the plane X0 = 0 (packed points below order^3), so the
    transversal scan at its surface points reaches every generator.
    """
    if frame.q > 7 and not force:
        raise pg3.TooLarge(f"full generator enumeration at q={frame.q} is heavy; pass force")
    ctx = frame.ctx
    pairs_a = []
    pairs_b = []
    pts = pg3.enumerate_surface(frame)
    for packed in pts[pts < ctx.order ** 3]:
        P = pg3.unpack(ctx, int(packed))
        for R in pg3._generator_partners(frame, P):
            pairs_a.append(P)
            pairs_b.append(R)
    keys = pg3.line_keys_batch(ctx, pairs_a, pairs_b)
    out = sorted({(int(a), int(b)) for a, b in keys})
    if len(out) != frame.num_generators:
        raise pg3.GeneratorCountMismatch(
            f"{len(out)} generators, expected {frame.num_generators}")
    return out


def count_E3_naive(ctx_q: FieldCtx) -> int:
    """Projective |{Y^2 = X^3 - X}| over ctx_q by a double loop."""
    n = 1
    for x in range(ctx_q.order):
        rhs = ctx_q.sub(ctx_q.mul(x, ctx_q.mul(x, x)), x)
        for y in range(ctx_q.order):
            if ctx_q.mul(y, y) == rhs:
                n += 1
    return n
