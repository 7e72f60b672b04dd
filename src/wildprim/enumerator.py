"""The enumeration pipeline: tower -> class module -> stable simple
subspaces of degree n -> one extension record per subspace.

Each record's invariants come from the parameter subspace D alone: the
filtration level delta equals the differental excess, so the differental
exponent of a ramified record is delta + p^n - 1 and its discriminant
exponent coincides (totally ramified, residual degree 1).  The Galois
closure has order p^n times the order of the image of the twisted dual
action on D (the twist is trivial for p = 2).

Representation classes come from chopping the regular representation of
the tower group; their identifiers are structural fingerprints (dimension
plus the characteristic polynomial of every group element), which is an
isomorphism invariant, so catalogs do not depend on the chop's random
path.  A JSON cache keyed by (p, f, char, n, seed, version) makes repeat
runs cheap; deleting it never changes any output.  The degree-n classes
are enumerated one after another in the calling thread.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__, modrep
from .classmod import (ClassBasis, artinschreier_basis, filtration_index,
                       galois_matrices, kummer_basis, level_of,
                       omega_character)
from .errors import InvariantViolation
from .tower import BaseField, TameTower, build_tower

DEFAULT_CACHE_DIR = ".wildprim-cache"
CACHE_ENV_VAR = "WILDPRIM_CACHE_DIR"


@dataclass
class SimpleClassInfo:
    """One isomorphism class of simple modules of the tower group."""
    identifier: str
    dim: int
    sigma: np.ndarray
    phi: np.ndarray
    end_degree: int
    inertia_exponent: int
    fingerprint: tuple
    multiplicity_in_regular: int

    def gens(self) -> list[np.ndarray]:
        return [self.sigma, self.phi]


def regular_representation(tower: TameTower) -> list[np.ndarray]:
    els = tower.group_elements()
    idx = {g: i for i, g in enumerate(els)}
    mats = []
    for h in (tower.sigma, tower.phi):
        M = np.zeros((len(els), len(els)), dtype=np.int64)
        for g in els:
            M[idx[tower.compose(h, g)], idx[g]] = 1
        mats.append(M)
    return mats


def _element_matrices(tower: TameTower, sigma: np.ndarray, phi: np.ndarray):
    """Matrix of every group element (a, b) -> sigma^a phi^b, in lex order."""
    p = tower.p
    dim = sigma.shape[0]
    pow_s = [np.eye(dim, dtype=np.int64)]
    for _ in range(tower.e - 1):
        pow_s.append(modrep.mm(pow_s[-1], sigma, p))
    pow_p = [np.eye(dim, dtype=np.int64)]
    for _ in range(tower.s * tower.e - 1):
        pow_p.append(modrep.mm(pow_p[-1], phi, p))
    return [(g, modrep.mm(pow_s[g[0]], pow_p[g[1]], p))
            for g in tower.group_elements()]


def fingerprint(tower: TameTower, sigma: np.ndarray, phi: np.ndarray) -> tuple:
    """(dim, charpoly of every group element): an isomorphism invariant that
    separates classes sharing sorted fixed-space data."""
    cps = tuple(tuple(modrep.charpoly(M, tower.p))
                for _, M in _element_matrices(tower, sigma, phi))
    return (sigma.shape[0], cps)


def _inertia_exponent(tower: TameTower, sigma: np.ndarray) -> int:
    """Smallest power of the canonical inertia character theta through which
    inertia acts on an eigenline of the class (advisory metadata)."""
    cp = modrep.charpoly(sigma, tower.p)
    F = tower.residue
    for k in range(tower.e):
        zk = tower.zeta ** k
        acc = F.zero
        for c in reversed(cp):
            acc = acc * zk + F.from_int(c)
        if acc.is_zero():
            return k
    raise InvariantViolation("inertia eigenvalues must be e-th roots of unity")


def _cache_path(cache_dir: str | None, key: str) -> str | None:
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR)
    if not cache_dir:
        return None
    return os.path.join(cache_dir, key + ".json")


def simple_classes(tower: TameTower, seed: int = 0,
                   cache_dir: str | None = None,
                   use_cache: bool = True) -> list[SimpleClassInfo]:
    """All simple classes of the tower group, in fingerprint order."""
    base = tower.base
    key = (f"classes-p{base.p}-f{base.f}-char{'0' if base.char == 0 else 'p'}"
           f"-n{tower.n}-seed{seed}-v{__version__}")
    path = _cache_path(cache_dir, key) if use_cache else None
    raw = None
    if path and os.path.exists(path):
        with open(path) as fh:
            raw = json.load(fh)
    if raw is None:
        constituents = modrep.chop(regular_representation(tower), tower.p, seed=seed)
        raw = [{"dim": c.dim,
                "sigma": c.gens[0].tolist(),
                "phi": c.gens[1].tolist(),
                "multiplicity": c.multiplicity}
               for c in constituents]
        if path:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(raw, fh)
            os.replace(tmp, path)
    infos = []
    for entry in raw:
        sigma = np.array(entry["sigma"], dtype=np.int64)
        phi = np.array(entry["phi"], dtype=np.int64)
        d, _ = modrep.end_field([sigma, phi], tower.p)
        infos.append(SimpleClassInfo(
            identifier="",
            dim=entry["dim"],
            sigma=sigma,
            phi=phi,
            end_degree=d,
            inertia_exponent=_inertia_exponent(tower, sigma),
            fingerprint=fingerprint(tower, sigma, phi),
            multiplicity_in_regular=entry["multiplicity"],
        ))
    infos.sort(key=lambda c: c.fingerprint)
    counters: dict[int, int] = {}
    for info in infos:
        k = counters.get(info.dim, 0)
        counters[info.dim] = k + 1
        info.identifier = f"{info.dim}d-{k}"
    return infos


@dataclass
class ExtensionRecord:
    """One primitive extension of degree p^n over the base."""
    base: dict
    n: int
    degree: int
    rep_id: str
    end_degree: int
    d_basis: list[list[int]]
    filtration_index: int
    level: int
    excess: int
    different_exponent: int
    discriminant_exponent: int
    ram_index: int
    closure_image_order: int
    closure_order: int
    closure_label: str | None
    unramified: bool
    tres_ramifiee: bool

    def to_dict(self) -> dict:
        return {
            "base": self.base, "n": self.n, "degree": self.degree,
            "rep_id": self.rep_id, "end_degree": self.end_degree,
            "d_basis": self.d_basis,
            "filtration_index": self.filtration_index,
            "level": self.level, "excess": self.excess,
            "different_exponent": self.different_exponent,
            "discriminant_exponent": self.discriminant_exponent,
            "ram_index": self.ram_index,
            "closure_image_order": self.closure_image_order,
            "closure_order": self.closure_order,
            "closure_label": self.closure_label,
            "unramified": self.unramified,
            "tres_ramifiee": self.tres_ramifiee,
        }


@dataclass
class EnumerationResult:
    base: BaseField
    n: int
    records: list[ExtensionRecord]
    tower: TameTower
    basis: ClassBasis
    matrices: dict
    classes: list[SimpleClassInfo]
    omega: dict
    options: dict = field(default_factory=dict)


def _matrix_group_order(gens: list[np.ndarray], p: int, cap: int = 10 ** 6) -> int:
    dim = gens[0].shape[0]
    eye = np.eye(dim, dtype=np.int64)
    seen = {eye.tobytes()}
    frontier = [eye]
    while frontier:
        M = frontier.pop()
        for G in gens:
            nxt = modrep.mm(G, M, p)
            key = nxt.tobytes()
            if key not in seen:
                seen.add(key)
                frontier.append(nxt)
                if len(seen) > cap:
                    raise InvariantViolation("matrix group closure exceeded cap")
    return len(seen)


def closure_descriptor(tower: TameTower, rho_sigma: np.ndarray, rho_phi: np.ndarray,
                       omega: dict):
    """(image order, closure order, label) from the twisted dual action on D.

    The wild part of the closure group has order p^n; the tame image is the
    matrix group generated by the twisted dual action (literally the
    inverse-transpose for p = 2, where the twist character is trivial).
    """
    p = tower.p
    n = rho_sigma.shape[0]
    twisted = [(omega[g] * modrep.inv_mat(M, p).T) % p
               for g, M in ((tower.sigma, rho_sigma), (tower.phi, rho_phi))]
    image_order = _matrix_group_order(twisted, p)
    closure_order = p ** n * image_order
    label = None
    if (p, n) == (2, 2):
        label = {12: "A4", 24: "S4"}.get(closure_order)
    return image_order, closure_order, label


def _check_level_divisibility(tower: TameTower, basis: ClassBasis, delta: int) -> None:
    p, n = tower.p, tower.n
    if delta % p:
        return
    if tower.base.char == 0:
        top = p * basis.c_index
        if n == 1 and delta in (0, top):
            return
    else:
        if n == 1 and delta == 0:
            return
    raise InvariantViolation(
        f"level {delta} violates the divisibility constraint at n={n}")


def _record_for(tower: TameTower, basis: ClassBasis, omega: dict,
                cls: SimpleClassInfo, rows: np.ndarray,
                gens_V: list[np.ndarray]) -> ExtensionRecord:
    p, n = tower.p, tower.n
    i_star, straddle = filtration_index(basis, rows)
    if straddle:
        raise InvariantViolation("a parameter subspace straddles the filtration")
    delta = level_of(basis, rows)
    _check_level_divisibility(tower, basis, delta)
    unramified = delta == 0
    if unramified and n != 1:
        raise InvariantViolation("an unramified parameter can only occur at n = 1")
    tres = tower.base.char == 0 and n == 1 and delta == p * basis.c_index
    degree = p ** n
    d = 0 if unramified else delta + degree - 1
    rho_sigma, rho_phi = modrep.restrict_action(gens_V, rows, p)
    image_order, closure_order, label = closure_descriptor(
        tower, rho_sigma, rho_phi, omega)
    return ExtensionRecord(
        base=tower.base.describe(),
        n=n,
        degree=degree,
        rep_id=cls.identifier,
        end_degree=cls.end_degree,
        d_basis=[[int(x) for x in row] for row in rows],
        filtration_index=i_star,
        level=delta,
        excess=delta,
        different_exponent=d,
        discriminant_exponent=d,
        ram_index=1 if unramified else degree,
        closure_image_order=image_order,
        closure_order=closure_order,
        closure_label=label,
        unramified=unramified,
        tres_ramifiee=tres,
    )


def enumerate_primitive(base: BaseField, n: int, *, level_bound: int | None = None,
                        precision: int | None = None, seed: int = 0,
                        cache_dir: str | None = None,
                        use_cache: bool = True) -> EnumerationResult:
    """All primitive extensions of degree p^n, as extension records.

    Char p requires level_bound (only finitely many records have bounded
    differental exponent; the module is materialized up to that bound).
    """
    if base.char != 0 and level_bound is None:
        raise ValueError("equal characteristic requires a level bound")
    if base.char == 0:
        level_bound = None  # meaningless there; keep it out of the metadata
    tower = build_tower(base, n, precision)
    if base.char == 0:
        basis = kummer_basis(tower)
    else:
        basis = artinschreier_basis(tower, level_bound)
    matrices = galois_matrices(basis)
    gens_V = [matrices[tower.sigma], matrices[tower.phi]]
    omega = omega_character(basis, matrices)
    classes = simple_classes(tower, seed=seed, cache_dir=cache_dir,
                             use_cache=use_cache)
    degree_classes = [c for c in classes if c.dim == n]
    records = [_record_for(tower, basis, omega, cls, rows, gens_V)
               for cls in degree_classes
               for _, rows in modrep.enumerate_simple_submodules(
                   gens_V, [cls.gens()], tower.p)]
    by_class = {cls.identifier: cls.fingerprint for cls in degree_classes}
    records.sort(key=lambda r: (r.level, by_class[r.rep_id],
                                tuple(x for row in r.d_basis for x in row)))
    return EnumerationResult(
        base=base, n=n, records=records, tower=tower, basis=basis,
        matrices=matrices, classes=classes, omega=omega,
        options={"seed": seed, "precision": tower.ring.prec,
                 "level_bound": level_bound})


def list_representations(base: BaseField, n: int, seed: int = 0,
                         cache_dir: str | None = None,
                         use_cache: bool = True) -> list[SimpleClassInfo]:
    """Simple classes of dimension n of the tower group, with metadata."""
    tower = build_tower(base, n)
    return [c for c in simple_classes(tower, seed=seed, cache_dir=cache_dir,
                                      use_cache=use_cache) if c.dim == n]
