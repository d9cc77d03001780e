"""Execution runtime: array allocation and transformation validation."""

from repro.runtime.arrays import allocate_arrays, infer_shapes, random_arrays
from repro.runtime.validate import ValidationResult, validate_transformation

__all__ = [
    "ValidationResult",
    "allocate_arrays",
    "infer_shapes",
    "random_arrays",
    "validate_transformation",
]
