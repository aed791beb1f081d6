import numpy as np
import pytest

from conservaflux.mesh import TriMesh


@pytest.fixture
def jittered_mesh():
    """Factory for the n x n unit-square grid (cells split along the lower
    left to upper right diagonal) with every interior vertex moved by a
    seeded uniform offset of up to amplitude * h per coordinate, as a plain
    TriMesh: no two elements share a shape."""
    def build(n, seed, amplitude=0.2):
        rng = np.random.default_rng(seed)
        c = np.linspace(0.0, 1.0, n + 1)
        xx, yy = np.meshgrid(c, c)
        vertices = np.column_stack([xx.ravel(), yy.ravel()])
        interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
        vertices[interior] += rng.uniform(-amplitude / n, amplitude / n,
                                          size=(int(interior.sum()), 2))
        triangles = []
        for j in range(n):
            for i in range(n):
                a = j * (n + 1) + i
                triangles += [(a, a + 1, a + n + 2), (a, a + n + 2, a + n + 1)]
        return TriMesh(vertices, np.array(triangles))
    return build


@pytest.fixture
def shuffled():
    """Factory for a mesh's triangulation with its triangles permuted and
    each one's vertex list rotated (which keeps it counterclockwise) by a
    seeded generator: an element's local vertex 0 is then not always the
    lower end of its edges."""
    def build(mesh, seed):
        rng = np.random.default_rng(seed)
        tris = mesh.triangles[rng.permutation(mesh.n_triangles)]
        shift = rng.integers(0, 3, size=len(tris))
        tris = np.array([np.roll(t, -s) for t, s in zip(tris, shift)])
        return TriMesh(mesh.vertices, tris)
    return build
