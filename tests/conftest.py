import pathlib

import pytest

from dynarace import Analysis, infer_domains, load_model

ROOT = pathlib.Path(__file__).resolve().parents[1]
SW_MODEL_PATH = ROOT / "models" / "sw_controller.dnk"


def pkt(dom, **values):
    """The packet of ``dom`` with these field values, given in field order."""
    assert tuple(values) == dom.fields
    return tuple(str(v) for v in values.values())


def edges(tree):
    """``(parent id, label, child id)`` of every stored edge, in id order."""
    for node in tree.nodes.values():
        if node.parent is not None:
            yield (node.parent, node.label, node.node_id)


def path_to(tree, nid):
    """Node ids from the root to ``nid`` inclusive, from the ``parent`` links."""
    path = []
    while nid is not None:
        path.append(nid)
        nid = tree.nodes[nid].parent
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
