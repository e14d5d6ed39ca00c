"""Cotilting modules from torsion pairs, and the special approximation
sequences of the associated cotorsion pair.

Detection is construct-then-verify: the candidate C is the sum of the
Ext-injective indecomposables of the torsion-free class, which makes it
self-orthogonal by construction.  The other two defining conditions
(injective dimension at most one, an add(C)-coresolution of the injective
cogenerator) and the class equality Cogen(C) = {X : Ext^1(X, C) = 0} = F are
checked explicitly; any failure reports the failing condition.  Cogen(C) is
read member by member off the Hom spaces between members, since it depends
only on add(C) (`torsion.cogenerated_bits`).

Prod is read as add throughout: over a finite-dimensional algebra at desk
scale the two closures agree on finite-dimensional modules.

The minimal approximation of a module already in the class is its identity
(Auslander-Smalo, "Preprojective modules over Artin algebras", J. Algebra
66, 1980), so the special sequences of such a module are not built by
`minimal_approx`.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import cached
from .exceptions import NotCotiltingError
from .homology import SES, cokernel, injective_envelope, is_injective, minimal_approx
from .modules import (
    Module, direct_sum, identity_morphism, injective_module, kernel,
)
from .torsion import TorsionPair, cogenerated_bits
from .universe import bit_indices


class CotiltingData(namedtuple("CotiltingData", (
        "pair",                 # the TorsionPair
        "cotilting",            # C, multiplicity-free sum of indec summands
        "add_c_bits",           # indec summands of C
        "perp_class_bits",      # (cotilting class)^{perp_1}
        "c0",
        "c1",
        "injective_cover",      # the SES 0 -> C1 -> C0 -> I -> 0
))):
    __slots__ = ()

    @property
    def universe(self):
        return self.pair.universe

    @property
    def c_class_bits(self) -> int:
        """Cogen(C) = perp_1(C): the torsion-free class, checked on build."""
        return self.pair.torsion_free_bits

    def c_class_members(self) -> list[Module]:
        return self.universe.members(self.c_class_bits)

    def perp_members(self) -> list[Module]:
        return self.universe.members(self.perp_class_bits)


def injective_cogenerator(algebra) -> Module:
    return direct_sum(
        [injective_module(algebra, v) for v in range(algebra.quiver.n)],
        algebra)


def _injective_dimension_exceeds_1(u, i: int) -> bool:
    """inj.dim X_i > 1 for member i; cached.  inj.dim of a sum is the largest
    inj.dim of its summands, so this decides condition (1) for every C."""
    def compute():
        env = injective_envelope(u.indecs[i])
        return not env.is_iso() and not is_injective(cokernel(env)[0])
    return cached(u, ("injective_dimension_exceeds_1", i), compute)


def dims_str(dims) -> str:
    """A dims vector as printed: (a,b,...)."""
    return "(" + ",".join(str(d) for d in dims) + ")"


def member_name(u, i: int) -> str:
    """Universe index and dims of a member, as named in a rejection reason
    or a verify FAIL line."""
    return f"M{i} {dims_str(u.indecs[i].dims)}"


def _first_member(u, bits: int) -> str:
    return member_name(u, bit_indices(bits)[0])


def cotilting_from_pair(pair: TorsionPair) -> CotiltingData:
    """Build and verify the cotilting structure of a torsion pair."""
    u = pair.universe
    u.require_complete()
    f_bits = pair.torsion_free_bits
    if f_bits == 0:
        raise NotCotiltingError("the torsion-free class has no Ext-injectives: "
                                "it is zero")
    # perpendicular class of the cotilting class; add(C) is its
    # intersection with F, the Ext-injectives of F
    perp_bits = u.perp(f_bits, ext=True, right=True)
    ext_inj = f_bits & perp_bits
    if ext_inj == 0:
        i = bit_indices(f_bits)[0]
        j = next(j for j in bit_indices(f_bits) if u.ext_table[j][i])
        raise NotCotiltingError(
            "the torsion-free class has no Ext-injectives: "
            f"Ext^1({member_name(u, j)}, {member_name(u, i)}) != 0")
    summands = u.members(ext_inj)
    c = direct_sum(summands, u.algebra)

    # condition (1): injective dimension at most one, member by member
    i = next((i for i in bit_indices(ext_inj)
              if _injective_dimension_exceeds_1(u, i)), None)
    if i is not None:
        raise NotCotiltingError(
            f"injective dimension of C exceeds 1 at {member_name(u, i)}")
    # condition (2), self-orthogonality, holds by construction: ext_inj is
    # the members i of F with Ext^1(F, X_i) = 0, and C lies in F
    # class equality Cogen(C) = perp_1(C) = torsion-free class
    cogen = cogenerated_bits(u, ext_inj)
    perp1_of_c = u.perp(ext_inj, ext=True, right=False)
    if cogen != perp1_of_c:
        only, other = (("Cogen(C)", "perp(C)") if cogen & ~perp1_of_c
                       else ("perp(C)", "Cogen(C)"))
        raise NotCotiltingError(
            f"Cogen(C) != perp(C) at {_first_member(u, cogen ^ perp1_of_c)}"
            f": in {only}, not in {other}")
    if cogen != f_bits:
        raise NotCotiltingError(
            "cotilting class differs from the torsion-free class at "
            f"{_first_member(u, cogen ^ f_bits)}")

    # condition (3): special cover of the injective cogenerator
    inj = injective_cogenerator(u.algebra)
    g = minimal_approx(inj, summands, "right")
    if not g.is_epi():
        raise NotCotiltingError(
            "the add(C)-approximation of the injective cogenerator is not "
            f"onto: its cokernel has dims {dims_str(cokernel(g)[0].dims)}")
    c1, incl = kernel(g)
    if u.summand_bitset(c1) & ~ext_inj:
        raise NotCotiltingError(
            "kernel of the injective-cogenerator cover leaves add(C) at "
            f"{_first_member(u, u.summand_bitset(c1) & ~ext_inj)}")
    cover = SES(c1, g.source, inj, incl, g)
    if not cover.validate():
        raise AssertionError("injective cover sequence is not exact")

    return CotiltingData(
        pair=pair,
        cotilting=c,
        add_c_bits=ext_inj,
        perp_class_bits=perp_bits,
        c0=g.source,
        c1=c1,
        injective_cover=cover,
    )


def special_cover(m: Module, data: CotiltingData) -> SES:
    """0 -> X -> Y -> M -> 0 with Y in the cotilting class, X in its perp,
    and the epi right minimal: the identity when M lies in the class.
    Cached per module key and cotilting class."""
    u = data.universe

    def compute():
        f = (identity_morphism(m) if u.in_class(m, data.c_class_bits)
             else minimal_approx(m, data.c_class_members(), "right"))
        if not f.is_epi():
            raise AssertionError("cotilting-class approximation is not onto")
        x, incl = kernel(f)
        if u.summand_bitset(x) & ~data.perp_class_bits:
            raise AssertionError("special cover kernel leaves the perp class")
        if (u.in_class(m, data.pair.torsion_bits)
                and u.summand_bitset(x) & ~data.add_c_bits):
            raise AssertionError("cover kernel of a torsion module leaves add(C)")
        ses = SES(x, f.source, m, incl, f)
        if not ses.validate():
            raise AssertionError("special cover is not exact")
        return ses
    return cached(u, ("special_cover", m.key, data.c_class_bits), compute)


def special_envelope(m: Module, data: CotiltingData) -> SES:
    """0 -> M -> X' -> Y' -> 0 with X' in the perp class, Y' in the cotilting
    class, and the mono left minimal: the identity when M lies in the perp
    class."""
    u = data.universe
    f = (identity_morphism(m) if u.in_class(m, data.perp_class_bits)
         else minimal_approx(m, data.perp_members(), "left"))
    if not f.is_mono():
        raise AssertionError("perp-class approximation is not mono")
    y, proj = cokernel(f)
    if u.summand_bitset(y) & ~data.c_class_bits:
        raise AssertionError("special envelope cokernel leaves the cotilting class")
    if u.in_class(m, data.c_class_bits):
        if u.summand_bitset(f.target) & ~data.add_c_bits:
            raise AssertionError("envelope of a cotilting-class module leaves add(C)")
    ses = SES(m, f.target, y, f, proj)
    if not ses.validate():
        raise AssertionError("special envelope is not exact")
    return ses


def minimal_cotilting(data: CotiltingData, envelope_modules: list[Module]) -> Module:
    """Special perp-envelope target of the sum of the heart-simple injective
    envelopes; verified cotilting with the same class."""
    u = data.universe
    total = direct_sum(list(envelope_modules), u.algebra)
    ses = special_envelope(total, data)
    tilde = ses.middle
    bits = u.summand_bitset(tilde)
    if bits & ~data.add_c_bits:
        raise AssertionError("minimal cotilting module leaves add(C)")
    if cogenerated_bits(u, bits) != data.c_class_bits:
        raise AssertionError("minimal cotilting module has a different class")
    return tilde
