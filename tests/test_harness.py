"""Cluster spawner: topology planning, a real spawned cluster, and its
teardown."""

import pytest

from gridfs.errors import BadRequest, SpawnFailed
from gridfs.harness import (
    ROLE_COLLECTOR,
    ROLE_DISTRIBUTOR,
    ROLE_MASTER,
    ROLE_PEER,
    ROLE_WORKER,
    Topology,
    plan_topology,
    spawn_cluster,
)


# -- topology planning -------------------------------------------------------

def test_hierarchical_six_nodes_is_one_four_one():
    plan = plan_topology(Topology.HIERARCHICAL, 6)
    assert plan.roles == (ROLE_DISTRIBUTOR, ROLE_WORKER, ROLE_WORKER,
                          ROLE_WORKER, ROLE_WORKER, ROLE_COLLECTOR)


def test_master_slaves_four_nodes():
    plan = plan_topology(Topology.MASTER_SLAVES, 4)
    assert plan.roles == (ROLE_MASTER, ROLE_WORKER, ROLE_WORKER, ROLE_WORKER)


def test_complete_graph_single_node_degenerates():
    assert plan_topology(Topology.COMPLETE_GRAPH, 1).roles == (ROLE_PEER,)


def test_topology_minimum_sizes():
    with pytest.raises(BadRequest):
        plan_topology(Topology.MASTER_SLAVES, 1)
    with pytest.raises(BadRequest):
        plan_topology(Topology.HIERARCHICAL, 2)
    with pytest.raises(BadRequest):
        plan_topology(Topology.COMPLETE_GRAPH, 0)


# -- a real cluster ----------------------------------------------------------

@pytest.fixture(scope="module")
def cluster():
    spawned = spawn_cluster(Topology.HIERARCHICAL, 3)
    yield spawned
    spawned.stop()


def test_cluster_shape(cluster):
    assert [node.role for node in cluster.nodes] == [
        ROLE_DISTRIBUTOR, ROLE_WORKER, ROLE_COLLECTOR]
    assert cluster.master is cluster.nodes[0]
    assert cluster.compute_nodes == [cluster.nodes[1]]
    assert cluster.collector is cluster.nodes[2]
    for node in cluster.nodes:
        assert node.process.poll() is None
        assert node.port > 0
        assert (node.root / "etc" / "credentials").exists()


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
