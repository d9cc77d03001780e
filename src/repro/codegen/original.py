"""Source order as a scanning order (identity codegen).

The definition lives in :mod:`repro.core.tiling`, where
:func:`~repro.core.tiling.tile_schedule` needs it for the point space of a
diamond band; this module keeps the name importable from the code generator.
"""

from repro.core.tiling import original_schedule

__all__ = ["original_schedule"]
