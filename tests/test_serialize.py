import re

import numpy as np
import pytest

from oscphase import (
    build_basis,
    export_spherical,
    load_operator,
    save_operator,
)


def test_round_trip(tmp_path, basis6, ops6):
    path = tmp_path / "v2.op"
    save_operator(path, ops6.v2)
    back = load_operator(path, basis6)
    assert np.abs((back.matrix - ops6.v2.matrix)).max() < 1e-16
    assert back.window == ops6.v2.window
    assert (back.lo, back.hi) == (ops6.v2.lo, ops6.v2.hi)
    again = tmp_path / "again.op"
    save_operator(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_header_names_basis_in_plain_text(tmp_path, ops6):
    path = tmp_path / "h.op"
    save_operator(path, ops6.h)
    assert path.read_text().splitlines()[1].startswith("# basis=cart3d/v2/n_max=6/circular dim=84 ")


def test_basis_mismatch_rejected(tmp_path, ops6):
    path = tmp_path / "h.op"
    save_operator(path, ops6.h)
    with pytest.raises(ValueError):
        load_operator(path, build_basis(3))


def test_magic_line_checked(tmp_path, basis6):
    path = tmp_path / "junk.op"
    path.write_text("not an operator file\n")
    with pytest.raises(ValueError):
        load_operator(path, basis6)


def test_save_is_deterministic(tmp_path, ops6):
    a = tmp_path / "a.op"
    b = tmp_path / "b.op"
    save_operator(a, ops6.l2)
    save_operator(b, ops6.l2)
    assert a.read_bytes() == b.read_bytes()


def test_export_spherical(tmp_path, sph6):
    path = tmp_path / "basis.txt"
    export_spherical(path, sph6)
    lines = path.read_text().splitlines()
    label_lines = [ln for ln in lines if ln.startswith("label ")]
    assert len(label_lines) == sph6.dim
    assert label_lines[0] == "label 0 0 0 0"



# each edit of a saved file, and the line its error must name
MALFORMED = {
    "header_key_missing": (lambda ls: [ls[0], ls[1].replace(" window=", " wndw="), *ls[2:]], 2),
    "header_item_without_value": (lambda ls: [ls[0], ls[1] + " junk", *ls[2:]], 2),
    # a file saved while basis keys were 16-hex hashes of their description
    "legacy_hashed_key": (lambda ls: [ls[0], re.sub(r"basis=\S+", "basis=0123456789abcdef", ls[1]), *ls[2:]], 2),
    "short_record": (lambda ls: [*ls[:3], ls[3].rsplit(" ", 1)[0], *ls[4:]], 4),
    "index_out_of_range": (lambda ls: [*ls[:4], "0 9999 1 0", *ls[5:]], 5),
    "nnz_mismatch": (lambda ls: ls[:-1], 2),
    # a byte that is not ASCII (the text is written as UTF-8)
    "non_ascii_byte": (lambda ls: [*ls[:3], ls[3] + " \u00e9", *ls[4:]], 4),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_names_file_and_line(tmp_path, basis6, ops6, case):
    edit, line = MALFORMED[case]
    path = tmp_path / "h.op"
    save_operator(path, ops6.h)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match="^%s:%d: " % (re.escape(str(path)), line)):
        load_operator(path, basis6)


def test_duplicate_record_names_both_lines(tmp_path, basis6, ops6):
    path = tmp_path / "h.op"
    save_operator(path, ops6.h)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines[:6], lines[3], *lines[7:]]) + "\n")
    row, col = lines[3].split()[:2]
    with pytest.raises(ValueError, match=r"^%s:7: second record for \(%s, %s\); the first is on line 4$" % (re.escape(str(path)), row, col)):
        load_operator(path, basis6)
