"""Surface mesh generation and OBJ/PLY export.

Samples the annulus on a grid that is uniform in log-radius, excises a
parameter disc around the end, and contracts the two boundary rings onto
the singular points by radial-limit extrapolation.  Meshes carry either
half-space coordinates or their projective-ball image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .annulus import CanonicalModuli, _mirror_angles
from .immersion import (
    HalfSpacePoint,
    RotationalModuli,
    immerse,
    immerse_rotational,
    klein_map,
)

# Circle offset used for the two-point radial-limit extrapolation onto the
# singular circles.  Evaluating exactly on |z| = 1 or |z| = r is 0/0-adjacent.
BOUNDARY_OFFSET = 1e-4

DEFAULT_RHO_END = 1e-2


@dataclass
class SurfaceMesh:
    """Triangle mesh with tagged coordinate model and singular-circle rings."""

    vertices: np.ndarray  # (n, 3) float64
    faces: np.ndarray  # (m, 3) int64, oriented consistently in parameter space
    model: str  # "halfspace" or "klein"
    boundary_rings: tuple = field(default_factory=tuple)  # (inner, outer) index lists

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.faces = np.asarray(self.faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError("faces must be an (m, 3) array")
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise ValueError("face indices out of range")
        if self.model not in ("halfspace", "klein"):
            raise ValueError(f"unknown model tag {self.model!r}")


def euler_characteristic(mesh: SurfaceMesh) -> int:
    """V - E + F with E counted over unique undirected edges."""
    f = mesh.faces
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    n_edges = len(np.unique(edges, axis=0))
    return len(mesh.vertices) - n_edges + len(f)


def _vertices_from_points(pts: HalfSpacePoint, model: str) -> np.ndarray:
    if model == "klein":
        return klein_map(pts)
    return np.stack([pts.horizontal.real, pts.horizontal.imag, pts.height], axis=-1)


def _grid_faces(n_rho: int, n_theta: int) -> np.ndarray:
    i = np.repeat(np.arange(n_rho), n_theta)
    j = np.tile(np.arange(n_theta), n_rho)
    jn = (j + 1) % n_theta
    a = i * n_theta + j
    b = i * n_theta + jn
    c = (i + 1) * n_theta + j
    d = (i + 1) * n_theta + jn
    return np.concatenate(
        [np.stack([a, b, d], axis=1), np.stack([a, d, c], axis=1)]
    ).astype(np.int64)


def _disc_clearance(tri: np.ndarray, p: complex) -> np.ndarray:
    """Distance from point p to each closed triangle (0 when p is inside).

    tri: (m, 3) complex vertex coordinates in the parameter plane.
    """
    d_best = np.full(len(tri), np.inf)
    inside = np.ones(len(tri), dtype=bool)
    for k in range(3):
        P = tri[:, k]
        Q = tri[:, (k + 1) % 3]
        PQ = Q - P
        t = np.clip(((p - P) * np.conj(PQ)).real / np.abs(PQ) ** 2, 0.0, 1.0)
        d_best = np.minimum(d_best, np.abs(p - (P + t * PQ)))
        inside &= (np.conj(PQ) * (p - P)).imag >= 0
    return np.where(inside, 0.0, d_best)


def _compact(vertices, faces, rings):
    """Drop vertices not referenced by any face and remap indices."""
    used = np.zeros(len(vertices), dtype=bool)
    used[faces.ravel()] = True
    remap = np.cumsum(used) - 1
    new_rings = tuple([int(remap[i]) for i in ring if used[i]] for ring in rings)
    return vertices[used], remap[faces], new_rings


def canonical_mesh(
    moduli: CanonicalModuli,
    n_rho: int = 32,
    n_theta: int = 64,
    model: str = "halfspace",
    rho_end: float = DEFAULT_RHO_END,
) -> SurfaceMesh:
    """Mesh the two-singularity surface over the annulus minus an end disc.

    Rings are uniform in log-radius; the two boundary rings carry
    extrapolated singular-circle positions, so they cluster at the two cone
    points.  Faces meeting the parameter disc |z - z0| < rho_end are dropped
    (the surface height collapses exponentially there), which leaves an
    annulus-minus-disc complex of Euler characteristic -1.  Column j sits
    at angle pi (2j - n_theta) / n_theta; the surface is symmetric under
    z -> conj(z), so only the columns at -pi and at angles >= 0 are
    immersed, and column j < n_theta / 2 is column n_theta - j mirrored.
    The immersion runs in the moduli's theta context (moduli.context()).
    """
    if n_rho < 8 or n_theta < 8:
        raise ValueError("n_rho and n_theta must both be at least 8")
    if not rho_end > 0:
        raise ValueError(f"rho_end must be positive, got {rho_end}")
    r = moduli.r
    theta, upper = _mirror_angles(n_theta)
    rho = np.exp(np.log(r) * (1.0 - np.arange(n_rho + 1) / n_rho))
    rho[0], rho[-1] = r, 1.0

    faces = _grid_faces(n_rho, n_theta)
    z_param = (rho[:, None] * np.exp(1j * theta)[None, :]).ravel()
    clearance = _disc_clearance(z_param[faces], complex(moduli.z0))
    faces = faces[clearance >= rho_end]
    if not len(faces):
        raise ValueError(f"rho_end={rho_end} excises every face")

    d = BOUNDARY_OFFSET
    levels = np.concatenate([[r + d, r + 2 * d], rho[1:-1], [1 - d, 1 - 2 * d]])
    pts = immerse(moduli, moduli.context(), levels[:, None] * np.exp(1j * theta[upper])[None, :])
    H = np.empty((levels.size, n_theta), dtype=complex)
    V = np.empty((levels.size, n_theta))
    H[:, upper], V[:, upper] = pts.horizontal, pts.height
    lower = np.setdiff1d(np.arange(n_theta), upper)
    H[:, lower], V[:, lower] = np.conj(H[:, n_theta - lower]), V[:, n_theta - lower]
    # two-offset radial-limit extrapolation onto each singular circle
    Hs = np.vstack([2 * H[0] - H[1], H[2:-2], 2 * H[-2] - H[-1]])
    Vs = np.vstack([2 * V[0] - V[1], V[2:-2], 2 * V[-2] - V[-1]])
    Vs = np.maximum(Vs, 0.0)

    flat = HalfSpacePoint(Hs.ravel(), Vs.ravel())
    rings = (
        list(range(n_theta)),
        list(range(n_rho * n_theta, (n_rho + 1) * n_theta)),
    )
    verts, faces, rings = _compact(_vertices_from_points(flat, model), faces, rings)
    return SurfaceMesh(verts, faces, model, rings)


def rotational_mesh(
    rot: RotationalModuli,
    n_rho: int = 32,
    n_theta: int = 64,
    model: str = "halfspace",
) -> SurfaceMesh:
    """Mesh the rotational surface over the punctured disc of radius s_rot.

    The end sits at the puncture, so rings run log-uniformly from
    DEFAULT_RHO_END * s_rot out to the singular circle itself, where the
    closed form is regular.
    """
    if n_rho < 8 or n_theta < 8:
        raise ValueError("n_rho and n_theta must both be at least 8")
    theta = -np.pi + 2.0 * np.pi * np.arange(n_theta) / n_theta
    radii = rot.s_rot * np.exp(np.log(DEFAULT_RHO_END) * (1.0 - np.arange(n_rho + 1) / n_rho))
    pts = immerse_rotational(rot, radii[:, None] * np.exp(1j * theta)[None, :])
    flat = HalfSpacePoint(pts.horizontal.ravel(), pts.height.ravel())
    rings = (
        list(range(n_theta)),
        list(range(n_rho * n_theta, (n_rho + 1) * n_theta)),
    )
    return SurfaceMesh(
        _vertices_from_points(flat, model), _grid_faces(n_rho, n_theta), model, rings
    )


def _ring_comment(tag: str, ring, one_based: bool) -> str:
    off = 1 if one_based else 0
    return f"# ring {tag} " + " ".join(str(i + off) for i in ring)


def write_obj(mesh: SurfaceMesh, path) -> None:
    """Wavefront OBJ: v lines at 17 significant digits, 1-based f triangles.

    The bytes are those of one f"v {x:.17g} {y:.17g} {z:.17g}" per vertex.
    The mesh is mirror-symmetric, so about half of its coordinates repeat
    another's magnitude: each distinct magnitude is formatted once, and a
    coordinate with the sign bit set takes a "-" in front, as %.17g writes
    -0 and -inf, except a NaN, which Python writes as nan whatever its sign.
    """
    lines = [f"# model {mesh.model}"]
    for tag, ring in zip(("inner", "outer"), mesh.boundary_rings):
        lines.append(_ring_comment(tag, ring, one_based=True))
    coords = mesh.vertices.ravel()
    mags, index = np.unique(np.abs(coords), return_inverse=True)
    # one format operation per block: %.17g and %d render a float and an
    # int as the f-string specs .17g and plain {} do
    text = np.array((("%.17g\n" * len(mags)) % tuple(mags.tolist())).split("\n"), dtype=object)[index]
    neg = np.signbit(coords) & ~np.isnan(coords)
    text[neg] = "-" + text[neg]
    vertices = ("v %s %s %s\n" * len(mesh.vertices)) % tuple(text.tolist())
    faces = ("f %d %d %d\n" * len(mesh.faces)) % tuple((mesh.faces + 1).ravel().tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n" + vertices + faces)


def write_ply(mesh: SurfaceMesh, path) -> None:
    """Binary little-endian PLY with float64 coordinates."""
    header = [
        "ply",
        "format binary_little_endian 1.0",
        f"comment model {mesh.model}",
    ]
    for tag, ring in zip(("inner", "outer"), mesh.boundary_rings):
        header.append("comment" + _ring_comment(tag, ring, one_based=False)[1:])
    header += [
        f"element vertex {len(mesh.vertices)}",
        "property double x",
        "property double y",
        "property double z",
        f"element face {len(mesh.faces)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(mesh.vertices, dtype="<f8").tobytes())
        faces = np.empty(len(mesh.faces), dtype=[("n", "u1"), ("v", "<i4", (3,))])
        faces["n"], faces["v"] = 3, mesh.faces
        fh.write(faces.tobytes())
