"""Pass/fail bookkeeping shared by the verification suites."""

from dataclasses import dataclass, field
from fractions import Fraction

from .lattice import format_rational, point_to_json

MAX_WITNESSES = 3


@dataclass
class RelationCheck:
    """Counts trials of one named relation and keeps failing witnesses."""

    name: str
    passes: int = 0
    fails: int = 0
    witnesses: list = field(default_factory=list)

    def record(self, ok, point=None, **extra):
        """Count one trial; a kept failure encodes ``point`` and ``extra``.

        The witness is ``{"point": <point file>, **extra}`` (no ``point``
        key when none is given), with rational extras written as ``"p/q"``,
        so the point replays through ``--point``.  Passing trials and
        failures beyond :data:`MAX_WITNESSES` build nothing.
        """
        if ok:
            self.passes += 1
        else:
            self.fails += 1
            if len(self.witnesses) < MAX_WITNESSES:
                witness = {
                    key: format_rational(value) if isinstance(value, Fraction) else value
                    for key, value in extra.items()
                }
                if point is not None:
                    witness["point"] = point_to_json(point)
                self.witnesses.append(witness)

    @property
    def ok(self):
        return self.fails == 0

    @property
    def vacuous(self):
        """True when no trial ran, e.g. a relation with no index pair at this shape."""
        return self.passes == 0 and self.fails == 0

    def to_json(self):
        return {
            "relation": self.name,
            "passes": self.passes,
            "fails": self.fails,
            "vacuous": self.vacuous,
            "witnesses": self.witnesses,
        }


def all_ok(checks):
    """No relation failed and at least one ran a trial: checking nothing is not ok."""
    checks = list(checks)
    return all(c.ok for c in checks) and not all(c.vacuous for c in checks)
