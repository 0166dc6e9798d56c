import pathlib

import pytest

from dynarace.engine import Analysis, TreeNode
from dynarace.model import Recv, Send, SeqPolicy, infer_domains, load_model, subterms
from dynarace.netkat import HashConsed, policy_nodes

ROOT = pathlib.Path(__file__).resolve().parents[1]
SW_MODEL_PATH = ROOT / "models" / "sw_controller.dnk"


def pkt(dom, **values):
    """The packet of ``dom`` with these field values, given in field order."""
    assert tuple(values) == dom.fields
    return tuple(str(v) for v in values.values())


def shape(x):
    """A syntax record as ``(class name, *shapes of its fields)``, a tuple
    or a dict item by item, anything else as itself.  Records
    are one object per value within one parse only, so a test compares a
    parsed record with a hand-built one, or records of two parses, by
    their shapes."""
    if isinstance(x, HashConsed):
        return (type(x).__name__, *(shape(getattr(x, f)) for f in x.__match_args__))
    if isinstance(x, tuple):
        return tuple(map(shape, x))
    if isinstance(x, dict):
        return {k: shape(v) for k, v in x.items()}
    return x


def syntax(model):
    """Every term of ``model`` and every policy node of its policy
    prefixes and policy messages, each once.  A token message is a
    ``str``, not a record."""
    records = {}
    for t in (*model.definitions.values(), *model.init):
        for s in subterms(t):
            records[s] = None
            if isinstance(s, SeqPolicy):
                records.update(dict.fromkeys(policy_nodes(s.policy)))
            elif isinstance(s, (Send, Recv)) and not isinstance(s.message, str):
                records.update(dict.fromkeys(policy_nodes(s.message)))
    return list(records)


def nodes_by_id(tree):
    """The tree's stored nodes as ``{id: TreeNode}``, in id order, read from
    its entries in one pass: build it once per tree, not once per lookup."""
    ids = iter(tree.nodes)
    nodes = {
        nid: TreeNode(nid, state, parent, label)
        for parent, (labels, states) in zip(tree.parents, tree.children, strict=True)
        for label, state, nid in zip(labels, states, ids)
    }
    assert len(nodes) == len(tree.nodes)
    return nodes


def edges(nodes):
    """``(parent id, label, child id)`` of every stored edge of a
    ``nodes_by_id`` table, in id order."""
    for node in nodes.values():
        if node.parent is not None:
            yield (node.parent, node.label, node.node_id)


def path_to(nodes, nid):
    """Node ids from the root to ``nid`` inclusive, from the ``parent`` links
    of a ``nodes_by_id`` table."""
    path = []
    while nid is not None:
        path.append(nid)
        nid = nodes[nid].parent
    return path[::-1]


@pytest.fixture(scope="session")
def sw_model():
    return load_model(SW_MODEL_PATH)


@pytest.fixture(scope="session")
def sw_dom(sw_model):
    return infer_domains(sw_model)


@pytest.fixture
def sw_analysis(sw_model, sw_dom):
    """A fresh analysis of ``sw_controller.dnk``, so no test sees another's caches."""
    return Analysis(sw_model, sw_dom)
