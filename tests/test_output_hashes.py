"""tools/output_hashes.py prints the hashes that a bit-identical change is
diffed against; one run of it here keeps the tool from rotting unnoticed."""

import contextlib
import importlib.util
import io
import re
from pathlib import Path

from tnaf.flow import HEADS, ROW_BLOCK, build_model

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_line_is_a_unique_name_and_sha256_covering_every_parameter():
    tool = load_tool()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main() == 0
    lines = out.getvalue().splitlines()
    for line in lines:
        assert re.fullmatch(r"\S+ [0-9a-f]{64}", line), line
    names = [line.split()[0] for line in lines]
    assert len(set(names)) == len(names)
    names = set(names)
    models = [(f"{head}.D{d}", tool.model_config(head, d)) for head, d in tool.MODELS]
    models += [(f"{head}.J{j}.D{d}", tool.model_config(head, d, {**tool.SMALL, "blocks": j}))
               for head, d, j in tool.STACKED]
    for tag, cfg in models:
        for output in ("loss", "loss32", "log_prob.y", "log_prob.logdet", "log_prob.logp",
                       "invert_rows", "train.history", "trained.sample"):
            assert f"{tag}.{output}" in names
        for param in build_model(cfg, seed=1).params.names():
            for kind in ("grad", "grad32", "trained"):
                assert f"{tag}.{kind}.{param}" in names
    bench = [(head, d, f"bench.{head}.D{d}") for head, d, _ in tool.BENCH]
    bench += [(head, d, f"bench.{head}.D{d}.N{rows}") for head, d, rows in tool.RAGGED]
    for head, d, tag in bench:
        for output in ("log_prob.y", "log_prob.logdet", "log_prob.logp", "loss32",
                       "invert_rows", "invert_rows.N1", "sample.N1"):
            assert f"{tag}.{output}" in names
        for param in build_model(tool.model_config(head, d, {}), seed=1).params.names():
            assert f"{tag}.grad32.{param}" in names
    for d, heads in tool.CACHE:
        assert f"cache.D{d}.h{heads}" in names
    assert {heads for _, heads in tool.CACHE} == {1, 8}
    assert tool.BLOCK_ROWS == 2 * ROW_BLOCK + 3
    head, d = tool.BLOCKS
    for output in ("evaluate", "invert_rows"):
        assert f"blocks.{head}.D{d}.N{tool.BLOCK_ROWS}.{output}" in names
    for head in HEADS:
        for output in ("train.stdout", "train.checkpoint", "sample", "inspect"):
            assert f"cli.{head}.{output}" in names
    assert {"cli.ablate.table", "cli.ablate.refused"} <= names
