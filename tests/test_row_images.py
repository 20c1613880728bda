"""The context closure over the reduced context against every row image.

``_row_images`` keeps only the meet-irreducible images g(I_x): an image
that is the meet of the images properly above it is dropped, top with them.
The oracle (``row_images_by_scan``) keeps every distinct image.  Every
closure over the kept images must equal the closure over all of them.  The
kept tuple is in descending int order, so no output may depend on hash
order; CI runs this file under two hash seeds.
"""

import random

from fai import FAI, LContext, LSet, downup, holds_in_context
from fai.context import _ganter_pass, _row_images
from fai.fset import meet_above, scale

from ladder import MINE_RUNGS, rung_context
from scan_oracle import row_images_by_scan

SEEDS = (0, 1, 2)


def _contexts(holidays, settings):
    yield from ((holidays, s) for s in settings.values())
    for seed in SEEDS:
        rng = random.Random(2200 + seed)
        for rung in MINE_RUNGS:
            yield rung_context(rng, *rung)


def test_kept_images_are_the_meet_irreducible_ones(holidays, settings):
    every_total = kept_total = tops = 0
    for ctx, s in _contexts(holidays, settings):
        top = scale(len(ctx.universe), ctx.chain.n).top
        every, kept = row_images_by_scan(ctx, s), _row_images(ctx, s)
        assert _row_images(ctx, s) is kept
        assert list(kept) == sorted(set(kept), reverse=True)
        assert set(kept) <= set(every)
        for m in kept:
            assert m != top
            assert meet_above(m, [r for r in every if r != m], top) != m
        for m in set(every) - set(kept):
            assert meet_above(m, kept, top) == m
        every_total, kept_total = every_total + len(every), kept_total + len(kept)
        tops += top in every
    # the reduction drops images, top among them
    assert kept_total < every_total and tops > 0


def test_the_pass_over_kept_images_equals_the_pass_over_every_image(holidays, settings):
    for ctx, s in _contexts(holidays, settings):
        scan = LContext(ctx.universe, ctx.chain, ctx.objects, ctx.rows)
        scan._images[s] = row_images_by_scan(scan, s)
        assert _ganter_pass(ctx, s, 10**6) == _ganter_pass(scan, s, 10**6)


def test_closure_and_context_truth_agree_with_every_image(holidays, settings):
    rng = random.Random(2201)
    for ctx, s in _contexts(holidays, settings):
        universe, chain = ctx.universe, ctx.chain
        top = scale(len(universe), chain.n).top
        every = row_images_by_scan(ctx, s)

        def draw():
            return LSet(universe, chain, [rng.randrange(chain.n) for _ in range(len(universe))])

        for g in [*ctx.rows, LSet.bottom(universe, chain), *(draw() for _ in range(40))]:
            closure = meet_above(g.mask, every, top)
            assert downup(ctx, g, s).mask == closure
            b = draw()
            assert holds_in_context(ctx, FAI(g, b), s) == (b.mask & closure == b.mask)

