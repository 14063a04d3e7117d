"""Extra tail padding for tests: `pad_batch` pads a batch only to its longest sample."""

import numpy as np

from gatedfusion.sequence import PaddedBatch


def pad_extra(batch: PaddedBatch, extra: int) -> PaddedBatch:
    """`batch` with `extra` more zero feature rows and zero mask entries per sample."""
    return PaddedBatch(np.pad(batch.features, ((0, 0), (0, extra), (0, 0))),
                       np.pad(batch.masks, ((0, 0), (0, extra))))
