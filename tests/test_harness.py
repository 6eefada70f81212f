"""Cluster spawner: a real spawned cluster of alike peers, and its
teardown."""

import pytest

from gridfs.errors import BadRequest, SpawnFailed
from gridfs.harness import Topology, spawn_cluster


def test_topology_minimum_sizes(tmp_path):
    with pytest.raises(BadRequest):
        spawn_cluster(Topology.COMPLETE_GRAPH, 0, scratch=tmp_path)
    assert list(tmp_path.iterdir()) == []


# -- a real cluster ----------------------------------------------------------

@pytest.fixture(scope="module")
def cluster():
    spawned = spawn_cluster(Topology.COMPLETE_GRAPH, 3)
    yield spawned
    spawned.stop()


def test_cluster_shape(cluster):
    assert len(cluster.nodes) == 3
    for node in cluster.nodes:
        assert node.process.poll() is None
        assert node.port > 0
        assert (node.root / "etc" / "credentials").exists()
    assert len({node.port for node in cluster.nodes}) == 3


def test_every_node_computes(cluster):
    assert cluster.compute_nodes == cluster.nodes


def test_every_node_holds_the_same_credentials(cluster):
    credentials = {(node.root / "etc" / "credentials").read_bytes()
                   for node in cluster.nodes}
    assert credentials == {f"{cluster.username}:{cluster.psk.hex()}\n"
                           .encode()}


# -- spawn failure and teardown ---------------------------------------------

def test_spawn_failure_is_spawn_failed(tmp_path):
    blocked = tmp_path / "occupied"
    blocked.write_text("a file where the scratch tree should be")
    with pytest.raises(SpawnFailed):
        spawn_cluster(Topology.COMPLETE_GRAPH, 1, scratch=blocked)


def test_teardown_kills_processes_and_removes_scratch():
    spawned = spawn_cluster(Topology.COMPLETE_GRAPH, 1)
    scratch = spawned.scratch
    process = spawned.nodes[0].process
    assert scratch.is_dir()
    assert process.poll() is None
    spawned.stop()
    assert process.poll() is not None
    assert not scratch.exists()
