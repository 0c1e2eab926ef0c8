"""The per-map claim table: every membership route and witness extractor
run once on one map, with every per-map claim name.

:func:`cross_check` reads the table back as a report beside
:func:`classify`'s definitional one; the equivalence suite in
:mod:`cyclorient.verification` tallies the same table over all n^n maps.
The table sits above the routes it checks and below the suites, so a
per-map caller never loads them; ``SUITES`` names the suites for the CLI.
"""

from __future__ import annotations

from . import chords, membership, witnesses
from .mappings import Mapping
from .membership import MembershipReport, _images_after, classify
from .sequences import _Record, _tag

SUITES = ("equivalence", "identity", "lemma")


class Disagreement(_Record):
    """One disagreement between two membership routes.

    ``sanctioned`` marks the known rank <= 2 exemption of the literal
    triple statement; anything unsanctioned would be a genuine bug.
    """

    claim: str
    detail: str
    sanctioned: bool


class ConsistencyReport(_Record):
    """The claim table of one map: each route's verdict, one ``(claim, ok)``
    row per checked claim and the resulting discrepancies, among them the
    sanctioned ``triple-*-literal`` gaps at rank <= 2 (a pass outside the
    class at rank >= 3 is a failing ``triple-*-refined`` row instead)."""

    definitional: MembershipReport
    triple_op: bool
    triple_or: bool
    quad_p: bool
    chord_p: bool
    discrepancies: tuple[Disagreement, ...]
    claims: tuple[tuple[str, bool], ...]

    @property
    def unsanctioned(self) -> tuple[Disagreement, ...]:
        return tuple(d for d in self.discrepancies if not d.sanctioned)

    @property
    def consistent(self) -> bool:
        return not self.unsanctioned


# The four route claims in verdict order, each with the label classify prints.
ROUTES = (
    ("triple-preserve-refined", "triple test (preserve)"),
    ("triple-reverse-refined", "triple test (reverse)"),
    ("quad-vs-definitional", "quadruple test"),
    ("chord-vs-definitional", "chord property"),
)
_ROUTE_CLAIMS = tuple(claim for claim, _ in ROUTES)

# (claim, index into _claims' wants, triple mode or None for the quadruple).
_WITNESS_CLAIMS = (
    ("witness-triple-preserve", 0, "preserve"),
    ("witness-triple-reverse", 1, "reverse"),
    ("witness-quad", 2, None),
)

# The sanctioned rank <= 2 gap of each triple route, in verdict order.
_GAP_CLAIMS = ("triple-preserve-literal", "triple-reverse-literal")


def _claims(imgs: tuple[int, ...]) -> tuple:
    """:func:`cross_check`'s claim table on a raw image tuple, also read by
    the equivalence suite in :mod:`cyclorient.verification`: ``(verdicts,
    checked, findings)``, with the four route verdicts, the claims checked
    in table order and one ``(claim, detail, sanctioned)`` row per finding:
    each failing route claim, then each failing witness claim, then each
    sanctioned ``triple-*-literal`` gap.  One kernel call, one ``set`` and one :func:`_images_after` list
    serve the routes and extractors (called through their modules, which
    tests patch)."""
    tag = _tag(imgs)
    in_op, in_or = tag.admits_cyclic, tag.admits_anti_cyclic
    rank = len(set(imgs))
    low_rank = rank <= 2
    after = _images_after(imgs)
    verdicts = (
        membership._keeps_triples(imgs, after, False),
        membership._keeps_triples(imgs, after, True),
        membership._first_unoriented(imgs, after) is None,
        chords._first_disjoint(imgs, after) is None,
    )
    # Membership, refined by rank for the triple tests.
    wants = (in_op or low_rank, in_or or low_rank, in_op or in_or, in_op or in_or)
    checked = _ROUTE_CLAIMS
    findings = []
    if verdicts != wants:
        findings = [
            (claim, f"{label} = {got} but definitional membership says {want};"
             f" image size {rank}", False)
            for (claim, label), got, want in zip(ROUTES, verdicts, wants)
            if got != want
        ]
    # Every map outside a class (at rank >= 3 for the triples) has a witness.
    for claim, want, mode in _WITNESS_CLAIMS:
        if not wants[want]:
            checked += (claim,)
            try:
                if mode is None:
                    witnesses._witness_quad(imgs)
                else:
                    witnesses._witness_triple(imgs, mode)
            except (ValueError, RuntimeError) as exc:
                findings.append((claim, f"extraction failed: {exc}", False))
    if low_rank:
        for gap, (_, label), passed, member in zip(_GAP_CLAIMS, ROUTES, verdicts, (in_op, in_or)):
            if passed and not member:
                detail = f"{label} passes outside the class; image size {rank} <= 2"
                findings.append((gap, f"{detail}: sanctioned exemption", True))
    return verdicts, checked, findings


def cross_check(m: Mapping) -> ConsistencyReport:
    """The per-map claim table: every membership route and witness
    extractor run once by :func:`_claims` on the image tuple, read back as a
    report beside :func:`classify`'s definitional one.

    ``claims`` holds one ``(claim, ok)`` row per claim: the triple tests
    agree with membership refined by rank (``triple-*-refined``), the
    quadruple test and the chord property agree with membership
    (``quad-vs-definitional``, ``chord-vs-definitional``), and every
    non-member that must have a witness yields one (``witness-*``); the
    chord property is the exact-geometry scan.
    The discrepancies are :func:`_claims`' findings: each failing row, and
    the sanctioned ``triple-*-literal`` exemption of a triple test that
    passes outside its class at rank <= 2, named as the suites name it.
    """
    verdicts, checked, findings = _claims(m.images)
    failed = {claim for claim, _, sanctioned in findings if not sanctioned}
    return ConsistencyReport(
        classify(m),
        *verdicts,
        tuple(Disagreement(*row) for row in findings),
        tuple((claim, claim not in failed) for claim in checked),
    )
