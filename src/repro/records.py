"""One serialization rule for the stats records (leaf module).

``SolveStats``, ``DepStats``, ``SchedulerStats``, ``ExecStats``,
``TimingBreakdown``, ``PolyCacheStats``, ``StoreStats`` and ``ServerMetrics``
(with its pool counters nested as ``PoolCounts``) are dataclasses deriving
from :class:`Record`, which reads ``as_dict`` / ``from_dict`` /
``merge`` / ``snapshot`` / ``delta_since`` off :func:`dataclasses.fields`
instead of each class spelling its fields out once per method.

The one ``from_dict`` rule: **an absent key takes the field default, an
unknown key is ignored** — a record written before a field existed, or by a
later version that added one, keeps parsing.

``as_dict()`` writes every field: a nested record through its own
``as_dict``, a list of groups as a list of lists, a dict of counters as a
copy.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, replace

__all__ = ["Record"]


def _plain(value):
    """JSON shape of a field value."""
    if isinstance(value, Record):
        return value.as_dict()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


class Record:
    """Mixin for ``@dataclass`` stats records whose fields all default."""

    def as_dict(self) -> dict:
        """JSON-serializable form, keys in field order."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict):
        """Inverse of :meth:`as_dict` under the module's one rule."""
        kwargs = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            default = f.default if f.default is not MISSING else f.default_factory()
            if isinstance(default, Record):
                value = type(default).from_dict(value)
            elif isinstance(default, list):
                value = _plain(value)
            kwargs[f.name] = value
        return cls(**kwargs)

    def merge(self, other) -> None:
        """Accumulate ``other``: counters add, nested records merge;
        labels and lists keep this record's value."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, Record):
                mine.merge(theirs)
            elif isinstance(mine, (int, float)) and not isinstance(mine, bool):
                setattr(self, f.name, mine + theirs)

    def snapshot(self):
        return replace(self)

    def delta_since(self, base):
        """A record of this one's counters minus ``base``'s."""
        return type(self)(**{
            f.name: getattr(self, f.name) - getattr(base, f.name)
            for f in fields(self)
        })
