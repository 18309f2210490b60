"""Pinned digests of the test-scale index build.

Refactors of the build (coverings, super-covering merge, training) must
leave the index bit for bit as it is. These tests pin, per polygon dataset
and build, the sha256 digest of the super covering's arrays and of the
ACT4 arrays built from it. A digest covers each array's dtype name, shape
and raw bytes, in the order listed in ``SC_ARRAYS`` / ``ACT_ARRAYS``.

Builds: ``approx`` is the 4 m approximate build, ``accurate`` the
budgeted accurate build, and ``trained`` the accurate build trained with
10,000 taxi points (seed 1).

The S2ShapeIndex analogs SI1 and SI10 are pinned the same way: one digest
of the arrays in ``SI_ARRAYS`` per dataset and ``max_edges_per_cell``.
"""
import hashlib

import numpy as np
import pytest

from repro import synth_data as sd
from repro.baselines.shapeindex import build_shapeindex
from repro.core.act import build_act
from repro.core.join import compute_coverings
from repro.core.supercovering import merge_coverings
from repro.core.training import train_index

SC_ARRAYS = ("ids", "ref_offsets", "ref_poly", "ref_interior")
ACT_ARRAYS = ("entries", "lookup_table")
SI_ARRAYS = ("ids", "edge_offsets", "edge_idx", "cin_offsets", "cin_poly")

#: (dataset, build) -> (super covering digest, ACT4 digest).
DIGESTS = {
    ("boroughs", "approx"): (
        "2eb6c8690a1291d555a93407d6bb55cb5456584e30f1beb1122d8590cc09daca",
        "89399c3597704f0ebe57223daa4412a95ccd0bad7d5ce2d507e19aaa6c5a9651",
    ),
    ("boroughs", "accurate"): (
        "c02e5c5e61f5d40baa69c18b4bebf28ca5adac6781d8426e72744ce5230ff53c",
        "253acde88de7aaa52b3d001eb22d8e8eec00c7e7125d27a89fca12a7cd1ac06c",
    ),
    ("boroughs", "trained"): (
        "1deff1642efe1178138cb9eaa009e4cd131c429307b998bf97d973d4a1e4ae9d",
        "fef02b6caa2e71efd37addb0ecff54841b3c4b882244f4ddd43ecee785370028",
    ),
    ("neighborhoods", "approx"): (
        "10a1aa71769a2eb6ab1fed499ebafcc61b012e76ab81a32622b62744a6ae2cd2",
        "d0bc443784a0335597b4e9bb7bafafc4560415aaed4a6d83e4cacc8ebb6ab584",
    ),
    ("neighborhoods", "accurate"): (
        "34250fc8dba3cbb41b5964eca486b8d6dd571041d53be4b2152e4f492df03eb6",
        "d02f373347d12b813e279c0b91969393b80c21ce6478c5427d822b40ee285899",
    ),
    ("neighborhoods", "trained"): (
        "7720c8e3a55e2bbdc2f9c633417bdddf025829a513d2d37e8576fdb741baec69",
        "4c86f09ec303608e4012e7ac6bd8f9794560eed9cc293100483f8a9cecab7858",
    ),
    ("census", "approx"): (
        "7a15e34108d090e0799bd7850faf91a9799562c53d2c71a337dc5ed92f549c5b",
        "1cdcd91f17faf57a560ac968166e7a1b1d7a058e6028d73ee19d86dd38e55873",
    ),
    ("census", "accurate"): (
        "53c0e02f2141d72b5cb8f86d098ecd328170953d5c3b48a7033fadeaf5ddc651",
        "796fea8db5e1c2cb4e169ee6f85cb6b853b78ca304e89b4c8efbeb1e0b15362d",
    ),
    ("census", "trained"): (
        "5e6460d89283c7d3c2cfc729208acdcb1bd41a3a57c3b1578b13fd70f7b7639d",
        "5b7c5731506a7336c34df8f85b60f53339c0643a6c3cf8108c84363588020513",
    ),
}

#: (dataset, max_edges_per_cell) -> shape index digest.
SI_DIGESTS = {
    ("boroughs", 1): "d1ef1afe5feea1655cb1a298c5784f4124d2d4b4efa0a87364f05ea8a9f5ee71",
    ("boroughs", 10): "72323808037772bccc4e1e5937efe52b50e2076e8ca4f7a9c8e48ed91625d8b3",
    ("neighborhoods", 1): "d64389ae746e58ecd68d38325bef80411b31fc3940fea83abac70890370e6f50",
    ("neighborhoods", 10): "526d21a757906d150f199f60bc001a3b8185a2ad6280a67f8cc876c408569de7",
    ("census", 1): "a2e3a9e95ab71c435ea77e5315d3bf9ff60aac8e74acb6a0ab3063822ec717ab",
    ("census", 10): "a4e704a476c467704dda82312261c930a07a862f67c68c60e3c32d1a7c56dfb8",
}


def digest(obj, names) -> str:
    h = hashlib.sha256()
    for name in names:
        a = np.ascontiguousarray(getattr(obj, name))
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def build(name: str, kind: str):
    pset = sd.polygon_dataset(name, scale="test")
    if kind == "approx":
        covs = compute_coverings(pset, sd.EXTENT, "approx", 4.0)
    else:
        covs = compute_coverings(pset, sd.EXTENT, "accurate")
    sc = merge_coverings(covs, sd.EXTENT)
    if kind == "trained":
        tx, ty = sd.taxi_points(10_000, extent=sd.EXTENT, seed=1)
        sc, _stats = train_index(sc, pset, tx, ty)
    return sc


@pytest.mark.parametrize("name,kind", sorted(DIGESTS))
def test_build_is_bit_identical(name, kind):
    sc = build(name, kind)
    want_sc, want_act = DIGESTS[(name, kind)]
    assert digest(sc, SC_ARRAYS) == want_sc
    assert digest(build_act(sc, 4), ACT_ARRAYS) == want_act


@pytest.mark.parametrize("name,max_edges", sorted(SI_DIGESTS))
def test_shapeindex_is_bit_identical(name, max_edges):
    pset = sd.polygon_dataset(name, scale="test")
    si = build_shapeindex(pset, sd.EXTENT, max_edges_per_cell=max_edges)
    assert digest(si, SI_ARRAYS) == SI_DIGESTS[(name, max_edges)]
