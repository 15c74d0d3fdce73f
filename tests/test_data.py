import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_random_dataset
from crossfuse.data import (_BREAK_RANGES, _SPACE_RANGES, TEST, TRAIN, VALIDATION, DataConfig,
                            DataError, InteractionDataset, _in_ranges, _is_float,
                            _sniff_delimiter, _split_counts, encode_auxiliary,
                            load_interactions, make_fields, one_hot_matrix, sample_negatives,
                            split_dataset, write_remap_table)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadInteractions:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "tiny.csv", "u1,i1,5.0\nu1,i2,3.0\nu2,i1,4.0\n")
        ds = load_interactions(path)
        assert ds.n == 2
        assert ds.m == 2
        assert len(ds) == 3
        assert ds.ratings.tolist() == [5.0, 3.0, 4.0]

    def test_reindexing_is_first_appearance_order(self, tmp_path):
        path = write(tmp_path, "t.csv", "b,x,1\na,y,1\nb,y,1\n")
        ds = load_interactions(path)
        assert ds.user_ids == ["b", "a"]
        assert ds.item_ids == ["x", "y"]

    def test_tab_delimiter_sniffed(self, tmp_path):
        path = write(tmp_path, "t.tsv", "u1\ti1\t2.0\nu2\ti2\t1.0\n")
        ds = load_interactions(path)
        assert ds.n == 2 and ds.m == 2

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "e.csv", "")
        with pytest.raises(DataError):
            load_interactions(path)

    def test_header_only_rejected(self, tmp_path):
        path = write(tmp_path, "h.csv", "user,item,rating\n")
        with pytest.raises(DataError, match="no interaction rows"):
            load_interactions(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = write(tmp_path, "bad.csv", "u1,i1,1.0\nu2,i2,oops\n")
        with pytest.raises(DataError, match=":2"):
            load_interactions(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_interactions(tmp_path / "absent.csv")

    def test_implicit_when_no_rating_column(self, tmp_path):
        path = write(tmp_path, "imp.csv", "u1,i1\nu2,i2\n")
        ds = load_interactions(path, DataConfig(rating_column=None))
        assert ds.implicit
        assert np.all(ds.ratings == 1.0)

    def test_duplicates_dropped(self, tmp_path):
        path = write(tmp_path, "dup.csv", "u1,i1,1\nu1,i1,2\nu2,i1,1\n")
        ds = load_interactions(path)
        assert len(ds) == 2

    def test_extra_columns_ignored(self, tmp_path):
        three = load_interactions(write(tmp_path, "3.csv", "u1,i1,1.0\nu1,i2,2.0\nu2,i1,3.0\n"))
        four = load_interactions(write(tmp_path, "4.csv",
                                       "u1,i1,1.0,100\nu1,i2,2.0,50\nu2,i1,3.0,later\n"))
        for name in ("users", "items", "ratings"):
            assert np.array_equal(getattr(four, name), getattr(three, name))
        assert (four.user_ids, four.item_ids) == (three.user_ids, three.item_ids)

    def test_remap_roundtrip_is_identity(self, tmp_path):
        path = write(tmp_path, "r.csv", "alice,art,1\nbob,books,2\nalice,books,3\n")
        ds = load_interactions(path)
        table = tmp_path / "remap.tsv"
        write_remap_table(table, ds.user_ids)
        rows = [line.split("\t") for line in table.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == len(ds.user_ids)
        for raw, idx in rows:
            assert ds.user_ids[int(idx)] == raw


def per_line_reference(path, cfg):
    """Reference loader: one line at a time, dropping a repeated pair as it is
    read through a set of the pairs seen so far, exactly as the loader did
    before it deduplicated by sorting.  Returns the loaded arrays, the raw id
    lists and the number of rows dropped."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    delim = cfg.delimiter or _sniff_delimiter(lines[0] if lines else ",")
    c_user, c_item, c_rating = cfg.user_column, cfg.item_column, cfg.rating_column
    start = 0
    if lines and c_rating is not None:
        first = lines[0].split(delim)
        start = int(len(first) > c_rating and not _is_float(first[c_rating].strip()))
    user_index, item_index = {}, {}
    users, items, ratings = [], [], []
    seen = set()
    dropped = 0
    width = max(c for c in (c_user, c_item, c_rating) if c is not None) + 1
    for lineno in range(start, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        parts = line.split(delim)
        if len(parts) < width:
            raise DataError(f"{path}:{lineno + 1}: expected at least {width} columns, got {len(parts)}")
        raw_u = parts[c_user].strip()
        raw_i = parts[c_item].strip()
        r = 1.0
        if c_rating is not None:
            r_text = parts[c_rating].strip()
            try:
                r = float(r_text)
            except ValueError:
                raise DataError(f"{path}:{lineno + 1}: bad rating value {r_text!r}") from None
        u = user_index.setdefault(raw_u, len(user_index))
        i = item_index.setdefault(raw_i, len(item_index))
        if (u, i) in seen:
            dropped += 1
            continue
        seen.add((u, i))
        users.append(u)
        items.append(i)
        ratings.append(r)
    if not users:
        raise DataError(f"{path}: no interaction rows")
    return (np.array(users), np.array(items), np.array(ratings),
            list(user_index), list(item_index), dropped)


# what the tokenizer must read as str does: every line end str.splitlines()
# knows (written through, so CRLF and a lone CR reach the reader), Unicode
# whitespace, non-ASCII ids, a NUL inside an id, and ids longer than a key word
LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028"]
PADS = ["", " ", "\xa0", "\u3000", "\x1f"]
ID_FORMS = ["u{}", "é{}", "用户{}", "u\0{}", "user-{:012d}"]


@st.composite
def interaction_logs(draw):
    """A log text and the config that reads it: string ids drawn from small
    pools, so pairs repeat with different ratings, plus an optional header,
    blank lines, extra columns, commas, tabs, bars or a two-character
    delimiter (set or sniffed), the line ends, whitespace and ids above,
    leading and trailing delimiters, implicit logs, and now and then a bad
    rating or a short row, in either order."""
    delim = draw(st.sampled_from([None, ",", "\t", "|", "::"]))
    sep = delim or draw(st.sampled_from([",", "\t"]))
    implicit = draw(st.booleans())
    extra = draw(st.integers(0, 2))
    n_users, n_items = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    form = st.sampled_from(ID_FORMS)
    pad = st.sampled_from(PADS)
    lines = []
    if not implicit and draw(st.booleans()):
        lines.append(sep.join(["user", "item", "rating"] + ["note"] * extra))
    for _ in range(draw(st.integers(1, 40))):
        # 0-3 blank, 57 odd rating, 58 short, 59 edge delimiters, else plain
        kind = draw(st.integers(0, 59))
        if kind < 4:
            lines.append(draw(st.sampled_from(["", "  ", "\u3000", "\t"])))
            continue
        row = [draw(form).format(draw(st.integers(0, n_users - 1))),
               draw(form).format(draw(st.integers(0, n_items - 1)))]
        if not implicit:
            row.append(draw(st.sampled_from(["inf", "oops", ""] if kind == 57
                                            else ["1", "2.5", "-3", "4e0", " 5 "])))
        row += [draw(st.sampled_from(["x", "", "7"])) for _ in range(extra)]
        if kind == 58:
            row = row[:draw(st.integers(1, len(row) - 1))]
        row = [draw(pad) + cell + draw(pad) if draw(st.integers(0, 3)) == 0 else cell
               for cell in row]
        line = sep.join(row)
        if kind == 59:
            line = (draw(st.sampled_from([sep, sep * 2, ""])) + line
                    + draw(st.sampled_from([sep, ""])))
        lines.append(draw(pad) + line + draw(pad))
    text = "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\n\r\v\f\x1c\x85\u2028")
    cfg = DataConfig(rating_column=None if implicit else 2, delimiter=delim)
    return text, cfg


def dropped_counts(records):
    """The row counts the loader's duplicate warnings report."""
    return [int(r.getMessage().split("dropped ")[1].split()[0]) for r in records
            if "duplicate" in r.getMessage()]


class TestLoaderMatchesPerLineReference:
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(interaction_logs())
    def test_generated_logs_load_identically(self, tmp_path, caplog, case):
        text, cfg = case
        path = write(tmp_path, "log.txt", text)
        try:
            expected = per_line_reference(path, cfg)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                load_interactions(path, cfg)
            assert str(got.value) == str(exc)
            return
        users, items, ratings, user_ids, item_ids, dropped = expected
        if not np.all(np.isfinite(ratings)):
            with pytest.raises(DataError, match="non-finite rating value"):
                load_interactions(path, cfg)
            return
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="crossfuse.data"):
            ds = load_interactions(path, cfg)
        for got, want in ((ds.users, users), (ds.items, items), (ds.ratings, ratings)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert (ds.user_ids, ds.item_ids) == (user_ids, item_ids)
        assert dropped_counts(caplog.records) == ([dropped] if dropped else [])

    def test_first_row_of_a_repeated_pair_keeps_its_rating(self, tmp_path, caplog):
        path = write(tmp_path, "dup.csv", "u1,i1,1\nu2,i1,4\nu1,i1,2\nu1,i2,3\nu1,i1,5\n")
        with caplog.at_level(logging.WARNING, logger="crossfuse.data"):
            ds = load_interactions(path)
        assert ds.users.tolist() == [0, 1, 0]
        assert ds.items.tolist() == [0, 0, 1]
        assert ds.ratings.tolist() == [1.0, 4.0, 3.0]
        assert dropped_counts(caplog.records) == [2]

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_rating_parses_then_fails_the_dataset_check(self, tmp_path, token):
        path = write(tmp_path, "r.csv", f"u1,i1,1\nu2,i2,{token}\n")
        assert not np.isfinite(per_line_reference(path, DataConfig())[2][1])
        with pytest.raises(DataError, match="non-finite rating value"):
            load_interactions(path)

    @pytest.mark.parametrize("bad", ["u9,i9", "u9,i9,oops"])
    @pytest.mark.parametrize("at", [0, 3, 6])
    def test_bad_line_reports_the_reference_line_number(self, tmp_path, bad, at):
        lines = ["user,item,rating", "u1,i1,1", "", "u1,i1,2", "u2,i2,1", "u2,i1,3", "u1,i2,1"]
        lines.insert(at + 1, bad)
        path = write(tmp_path, "bad.csv", "\n".join(lines) + "\n")
        with pytest.raises(DataError) as want:
            per_line_reference(path, DataConfig())
        with pytest.raises(DataError, match=f":{at + 2}: ") as got:
            load_interactions(path)
        assert str(got.value) == str(want.value)


class TestEncodeAuxiliary:
    def test_concatenated_one_hot_offsets(self, tmp_path):
        # field 1 has 3 categories (a, b, c), field 2 has 2 (x, y); plus blanks
        path = write(tmp_path, "a.csv", "n0,b,x\nn1,a,y\nn2,c,x\n")
        mat = encode_auxiliary(path, ["n0", "n1", "n2"])
        assert mat.dim == (3 + 1) + (2 + 1)
        assert mat.values[0, 1] == 1.0  # 'b' is index 1 in sorted (a, b, c)
        assert mat.values[0, 4] == 1.0  # 'x' is index 0 at offset 4
        assert mat.values.sum() == 2 * 3

    def test_missing_value_gets_blank_token(self, tmp_path):
        path = write(tmp_path, "m.csv", "n0,a,\nn1,b,x\n")
        mat = encode_auxiliary(path, ["n0", "n1"])
        f2 = mat.fields[1]
        assert mat.values[0, f2.blank_index] == 1.0

    def test_missing_node_row_gets_all_blanks(self, tmp_path):
        path = write(tmp_path, "m.csv", "n0,a\nn2,b\n")
        mat = encode_auxiliary(path, ["n0", "n1", "n2"])
        f = mat.fields[0]
        assert mat.values[1, f.blank_index] == 1.0

    def test_rows_follow_the_order_of_ids(self, tmp_path):
        # integer-looking ids are raw ids too, not row indices
        path = write(tmp_path, "o.csv", "3,x\n10,y\n")
        mat = encode_auxiliary(path, ["10", "3"])
        f = mat.fields[0]
        assert mat.rows == 2
        assert mat.values[0, f.offset + f.categories.index("y")] == 1.0
        assert mat.values[1, f.offset + f.categories.index("x")] == 1.0

    def test_duplicate_node_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "n0,a\nn0,b\n")
        with pytest.raises(DataError, match=":2: duplicate row for node 'n0'"):
            encode_auxiliary(path, ["n0", "n1"])

    def test_unknown_raw_id_rejected(self, tmp_path):
        path = write(tmp_path, "r.csv", "stranger,a\n")
        with pytest.raises(DataError, match="not present"):
            encode_auxiliary(path, ["known"])

    def test_row_ones_equal_field_count(self, tmp_path):
        path = write(tmp_path, "p.csv", "n0,a,x,q\nn1,b,,q\nn2,,y,\n")
        mat = encode_auxiliary(path, ["n0", "n1", "n2", "n3"])
        assert np.all(mat.values.sum(axis=1) == 3)


def per_line_attributes(path, ids, delimiter=None):
    """Reference attribute encoder: one line at a time, as the encoder read
    tables before it tokenized the whole text."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    delim = delimiter or _sniff_delimiter(lines[0] if lines else ",")
    id_map = {raw: idx for idx, raw in enumerate(ids)}
    rows = {}
    width = None
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(delim)]
        raw = parts[0]
        if raw not in id_map:
            raise DataError(f"{path}:{lineno + 1}: node id {raw!r} not present in the dataset")
        node = id_map[raw]
        if node in rows:
            raise DataError(f"{path}:{lineno + 1}: duplicate row for node {raw!r}")
        vals = parts[1:]
        rows[node] = vals
        width = max(width or 0, len(vals))
    if width is None:
        raise DataError(f"{path}: no attribute rows")
    if width == 0:
        raise DataError(f"{path}: no attribute columns (each row holds only a node id)")
    distinct = [sorted({vals[j] for vals in rows.values() if j < len(vals) and vals[j]})
                for j in range(width)]
    fields = make_fields([f"field_{j + 1}" for j in range(width)], distinct)
    index = [{c: k for k, c in enumerate(f.categories)} for f in fields]
    labels = np.full((len(ids), width), -1, dtype=np.int64)
    for node, vals in rows.items():
        labels[node, :len(vals)] = [slots[v] if v else -1 for slots, v in zip(index, vals)]
    return one_hot_matrix(labels, fields)


@st.composite
def attribute_tables(draw):
    """An attribute table, the dataset ids it is read against and the
    delimiter to pass: ids of the forms above in any order, rows of any
    width with empty, repeated and whitespace-padded cells, blank lines,
    every line end, and now and then an unknown id, a repeated row, rows
    that hold only an id, or no row at all."""
    delim = draw(st.sampled_from([None, ",", "\t", "|", "::"]))
    sep = delim or draw(st.sampled_from([",", "\t"]))
    ids = draw(st.lists(st.tuples(st.sampled_from(ID_FORMS), st.integers(0, 9)).map(
        lambda form_k: form_k[0].format(form_k[1])), min_size=1, max_size=8, unique=True))
    width = draw(st.sampled_from([3, 2, 1, 0]))
    nodes = draw(st.permutations(ids))[:draw(st.integers(1, len(ids)))]
    if draw(st.integers(0, 19)) == 7:  # about one table in twenty; hypothesis favours 0
        nodes = []
    if draw(st.integers(0, 5)) == 0:
        nodes.insert(draw(st.integers(0, len(nodes))),
                     draw(st.sampled_from(ids + ["stranger"])))
    pad = st.sampled_from(PADS)
    lines = []
    for node in nodes:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " \t", "\u3000"])))
        cells = [node] + [draw(st.sampled_from(["a", "b", "é", "x\0", "", " "]))
                          for _ in range(draw(st.integers(min(width, 1), width)))]
        lines.append(sep.join(draw(pad) + c + draw(pad) if draw(st.integers(0, 3)) == 0
                              else c for c in cells))
    text = "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines)
    return text, ids, delim


class TestEncoderMatchesPerLineReference:
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(attribute_tables())
    def test_generated_tables_encode_identically(self, tmp_path, case):
        text, ids, delim = case
        path = write(tmp_path, "attrs.txt", text)
        try:
            want = per_line_attributes(path, ids, delim)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                encode_auxiliary(path, ids, delim)
            assert str(got.value) == str(exc)
            return
        got = encode_auxiliary(path, ids, delim)
        assert got.values.dtype == want.values.dtype
        assert np.array_equal(got.values, want.values)
        assert (got.rows, got.dim, got.fields) == (want.rows, want.dim, want.fields)

    @pytest.mark.parametrize("text, error", [
        ("n0,a\nn9,b\n", ":2: node id 'n9' not present"),
        ("n0,a\n\nn0,b\n", ":3: duplicate row for node 'n0'"),
        ("n0\nn1\n", "no attribute columns"),
        ("\n \t\n", "no attribute rows"),
        ("", "no attribute rows")])
    def test_errors_name_the_reference_line(self, tmp_path, text, error):
        path = write(tmp_path, "attrs.txt", text)
        with pytest.raises(DataError) as want:
            per_line_attributes(path, ["n0", "n1"])
        with pytest.raises(DataError, match=error) as got:
            encode_auxiliary(path, ["n0", "n1"])
        assert str(got.value) == str(want.value)


class TestTokenizer:
    def test_character_classes_are_pythons(self):
        """The whitespace and line-break ranges hold exactly the code points
        str.isspace() and str.splitlines() take, for wide and ASCII units."""
        chars = [chr(c) for c in range(0x110000)]
        spaces = [c for c, ch in enumerate(chars) if ch.isspace()]
        breaks = [c for c, ch in enumerate(chars) if len(f"a{ch}b".splitlines()) == 2]
        wide = np.arange(0x110000, dtype=np.uint32)
        ascii_ = np.arange(0x80, dtype=np.uint8)
        for ranges, want in ((_SPACE_RANGES, spaces), (_BREAK_RANGES, breaks)):
            assert np.flatnonzero(_in_ranges(wide, ranges)).tolist() == want
            assert np.flatnonzero(_in_ranges(ascii_, ranges)).tolist() == [
                c for c in want if c < 0x80]

    def test_header_alone_with_overlapping_delimiters(self, tmp_path):
        path = write(tmp_path, "log.txt", "user::::item::rating\n\n")
        with pytest.raises(DataError, match="no interaction rows"):
            load_interactions(path, DataConfig(delimiter="::"))

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from([":", "::", "aa", "aba", "a:a"]),
           st.lists(st.text("ab: ", max_size=12), min_size=1, max_size=8))
    def test_self_overlapping_delimiters_split_as_str_split(self, tmp_path, delim, lines):
        """Runs of overlapping matches split left to right, as str.split does."""
        path = write(tmp_path, "log.txt", "\n".join(lines) + "\n")
        cfg = DataConfig(rating_column=None, delimiter=delim)
        try:
            expected = per_line_reference(path, cfg)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                load_interactions(path, cfg)
            assert str(got.value) == str(exc)
            return
        ds = load_interactions(path, cfg)
        assert (ds.user_ids, ds.item_ids) == tuple(expected[3:5])
        assert np.array_equal(ds.users, expected[0]) and np.array_equal(ds.items, expected[1])


def list_append_split(ds, ratios, seed):
    """Reference split: each user's interaction indices gathered with one list
    append per interaction, then the per-user permutation and cut points."""
    ratios_arr = np.asarray(ratios, dtype=np.float64)
    rng = np.random.default_rng(seed)
    split = np.zeros(len(ds), dtype=np.int8)
    n_splits = int(np.count_nonzero(ratios_arr))
    by_user = [[] for _ in range(ds.n)]
    for idx, u in enumerate(ds.users):
        by_user[u].append(idx)
    for u in range(ds.n):
        idx = np.array(by_user[u], dtype=np.int64)
        if len(idx) < n_splits:
            continue
        perm = idx[rng.permutation(len(idx))]
        counts = _split_counts(len(idx), ratios_arr)
        a, b = counts[0], counts[0] + counts[1]
        split[perm[a:b]] = VALIDATION
        split[perm[b:]] = TEST
    return split


class TestSplitDataset:
    def _uniform_ds(self, users, per_user):
        u = np.repeat(np.arange(users), per_user)
        i = np.tile(np.arange(per_user), users)
        return InteractionDataset(n=users, m=per_user, users=u, items=i,
                                  ratings=np.ones(len(u)),
                                  split=np.zeros(len(u), dtype=np.int8))

    def test_80_20(self):
        ds = self._uniform_ds(10, 10)
        out = split_dataset(ds, (0.8, 0.0, 0.2), seed=0)
        assert len(out.split_indices(TRAIN)) == 80
        assert len(out.split_indices(VALIDATION)) == 0
        assert len(out.split_indices(TEST)) == 20

    def test_72_8_20(self):
        ds = self._uniform_ds(4, 25)
        out = split_dataset(ds, (0.72, 0.08, 0.20), seed=0)
        assert len(out.split_indices(TRAIN)) == 72
        assert len(out.split_indices(VALIDATION)) == 8
        assert len(out.split_indices(TEST)) == 20

    def test_deterministic(self):
        ds = self._uniform_ds(7, 9)
        a = split_dataset(ds, (0.7, 0.1, 0.2), seed=42)
        b = split_dataset(ds, (0.7, 0.1, 0.2), seed=42)
        assert np.array_equal(a.split, b.split)

    def test_multiset_preserved(self):
        ds = self._uniform_ds(7, 9)
        out = split_dataset(ds, (0.6, 0.2, 0.2), seed=3)
        before = sorted(zip(ds.users, ds.items, ds.ratings))
        after = sorted(zip(out.users, out.items, out.ratings))
        assert before == after

    def test_short_user_kept_in_train(self):
        users = np.array([0, 0, 0, 0, 0, 1, 1])
        items = np.array([0, 1, 2, 3, 4, 0, 1])
        ds = InteractionDataset(n=2, m=5, users=users, items=items,
                                ratings=np.ones(7), split=np.zeros(7, dtype=np.int8))
        out = split_dataset(ds, (0.4, 0.3, 0.3), seed=0)
        assert np.all(out.split[out.users == 1] == TRAIN)

    @pytest.mark.parametrize("ratios", [(0.72, 0.08, 0.2), (0.5, 0.0, 0.5), (1.0, 0.0, 0.0)])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_list_append_grouping(self, seed, ratios):
        base = make_random_dataset(seed, n=30, m=40, lo=1, hi=12)
        order = np.random.default_rng(seed).permutation(len(base))  # interleave the users
        ds = InteractionDataset(base.n, base.m, base.users[order], base.items[order],
                                base.ratings[order], base.split[order])
        assert np.array_equal(split_dataset(ds, ratios, seed).split,
                              list_append_split(ds, ratios, seed))

    @pytest.mark.parametrize("ratios", [(0.5, 0.2, 0.2), (0.0, 0.5, 0.5), (np.nan, 0.08, 0.2),
                                        (0.72, np.nan, 0.2), (np.inf, 0.08, 0.2),
                                        (0.72, 0.08, -np.inf)])
    def test_bad_ratios(self, ratios):
        ds = self._uniform_ds(2, 5)
        with pytest.raises(ValueError):
            split_dataset(ds, ratios, seed=0)


def per_row_negatives(ds, users, rng):
    """Reference sampler: one scalar draw at a time, row by row, exactly as the
    training loop drew before sampling was batched.  Returns the negatives,
    the number of rejection draws and the number of exact-pool fallbacks."""
    out, draws, fallbacks = [], 0, 0
    for u in users:
        pos = ds.train_item_set(int(u))
        if len(pos) >= ds.m:
            raise ValueError(f"user {u} has interacted with every item")
        for _ in range(64):
            i = int(rng.integers(0, ds.m))
            draws += 1
            if i not in pos:
                break
        else:
            fallbacks += 1
            pool = np.setdiff1d(np.arange(ds.m), ds.train_items(int(u)))
            i = int(rng.choice(pool))
        out.append(i)
    return np.array(out, dtype=np.int64), draws, fallbacks


def assert_replays_per_row(ds, users, seed):
    """The batched sampler returns the per-row negatives and leaves the
    generator in the per-row end state; returns the reference's counts."""
    ref_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    expected, draws, fallbacks = per_row_negatives(ds, users, ref_rng)
    got = sample_negatives(ds, np.asarray(users, dtype=np.int64), rng)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return draws, fallbacks


def dataset_from_sets(m, held):
    """All-train implicit dataset where user u holds the items in held[u]."""
    users = [u for u, items in enumerate(held) for _ in items]
    items = [i for items in held for i in sorted(items)]
    return InteractionDataset(n=len(held), m=m, users=np.array(users), items=np.array(items),
                              ratings=np.ones(len(users)),
                              split=np.zeros(len(users), dtype=np.int8))


@st.composite
def sampling_cases(draw):
    m = draw(st.integers(2, 40))
    n = draw(st.integers(1, 6))
    held = [draw(st.sets(st.integers(0, m - 1), max_size=m - 1)) for _ in range(n)]
    if not any(held):
        held[0] = {0}
    users = draw(st.lists(st.integers(0, n - 1), max_size=60))
    return dataset_from_sets(m, held), users, draw(st.integers(0, 2**32 - 1))


class TestSampleNegatives:
    def test_negatives_avoid_seen_items(self, tiny_dataset):
        rng = np.random.default_rng(0)
        users = np.repeat(np.arange(tiny_dataset.n), 5)
        for _ in range(20):
            out = sample_negatives(tiny_dataset, users, rng)
            assert len(out) == len(users)
            for u, i in zip(users, out):
                assert 0 <= i < tiny_dataset.m
                assert i not in tiny_dataset.train_item_set(int(u))

    def test_deterministic_given_seed(self, tiny_dataset):
        users = np.array([2, 2, 0, 5, 2])
        a = sample_negatives(tiny_dataset, users, np.random.default_rng(9))
        b = sample_negatives(tiny_dataset, users, np.random.default_rng(9))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_sparse_users_replay_per_row_stream(self, tiny_dataset, seed):
        users = np.random.default_rng(100 + seed).integers(0, tiny_dataset.n, size=50)
        assert_replays_per_row(tiny_dataset, users, seed)

    def test_fallback_mid_batch_replays_per_row_stream(self):
        held = [set(range(199)), {3, 7}, {0}, set(range(0, 200, 2))]
        ds = dataset_from_sets(200, held)
        # A sparse user after each fallback takes the next draw, so a fallback
        # one draw early or late shows in the outputs.
        users = [1, 0, 2, 0, 3, 0, 1, 0, 2, 0, 3]
        _, fallbacks = assert_replays_per_row(ds, users, seed=0)
        assert fallbacks > 0

    def test_empty_user_list_draws_nothing(self, tiny_dataset):
        rng = np.random.default_rng(3)
        out = sample_negatives(tiny_dataset, np.empty(0, dtype=np.int64), rng)
        assert out.shape == (0,) and out.dtype == np.int64
        assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state

    def test_block_refill_replays_per_row_stream(self):
        # Users holding 3/4 of the items reject about three draws in four, so
        # the draws run well past one block of len(users) plus slack.
        rng = np.random.default_rng(5)
        held = [set(rng.choice(40, size=30, replace=False).tolist()) for _ in range(10)]
        ds = dataset_from_sets(40, held)
        users = rng.integers(0, 10, size=200)
        draws, _ = assert_replays_per_row(ds, users, seed=11)
        assert draws > 2 * len(users)

    def test_full_user_is_data_error(self):
        ds = dataset_from_sets(2, [{0, 1}, {0}])
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match="user 0 has interacted with every item"):
            sample_negatives(ds, np.array([1, 0, 1]), rng)
        # The rows before the full user were drawn, as row by row.
        ref_rng = np.random.default_rng(0)
        per_row_negatives(ds, [1], ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(sampling_cases())
    def test_replays_per_row_stream_on_random_datasets(self, case):
        ds, users, seed = case
        assert_replays_per_row(ds, users, seed)


class TestTrainCsr:
    @pytest.mark.parametrize("seed", range(6))
    def test_train_items_are_each_users_sorted_train_items(self, seed):
        ds = split_dataset(make_random_dataset(seed, n=10, m=15, lo=3, hi=9),
                           (0.6, 0.2, 0.2), seed=seed)
        tr = ds.split_indices(TRAIN)
        for u in range(ds.n):
            expect = sorted(ds.items[tr][ds.users[tr] == u].tolist())
            assert ds.train_items(u).tolist() == expect
            assert ds.train_item_set(u) == set(expect)

    @pytest.mark.parametrize("seed", range(3))
    def test_train_items_are_read_only(self, seed):
        ds = make_random_dataset(seed)
        for u in range(ds.n):
            items = ds.train_items(u)
            with pytest.raises(ValueError):
                items[:] = 0
        indptr, indices = ds.split_csr(TRAIN)
        with pytest.raises(ValueError):
            indptr[0] = 1
        with pytest.raises(ValueError):
            indices[0] = 1


def lexsort_csr(ds, tag=TRAIN):
    """Reference split CSR: the split's pairs ordered by a (user, item) lexsort."""
    tr = ds.split_indices(tag)
    users, items = ds.users[tr], ds.items[tr]
    indptr = np.zeros(ds.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(users, minlength=ds.n), out=indptr[1:])
    return indptr, items[np.lexsort((items, users))]


@st.composite
def tagged_triples(draw, unique):
    """(n, m, split, users, items); with ``unique`` no (split, user, item)
    triple repeats, otherwise repeats are likely."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    triple = st.tuples(st.integers(0, 2), st.integers(0, n - 1), st.integers(0, m - 1))
    if unique:
        triples = draw(st.lists(triple, min_size=1, max_size=30, unique=True))
    else:
        triples = draw(st.lists(triple, min_size=1, max_size=12))
    split, users, items = (np.array(c, dtype=np.int64) for c in zip(*triples))
    return n, m, split.astype(np.int8), users, items


def make_tagged(n, m, split, users, items):
    return InteractionDataset(n=n, m=m, users=users, items=items,
                              ratings=np.ones(len(users)), split=split)


class TestSortedPairKeys:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(tagged_triples(unique=False))
    def test_validate_rejects_exactly_a_repeated_triple(self, case):
        n, m, split, users, items = case
        triples = list(zip(split.tolist(), users.tolist(), items.tolist()))
        if len(set(triples)) == len(triples):
            make_tagged(n, m, split, users, items)
        else:
            with pytest.raises(DataError, match="duplicate"):
                make_tagged(n, m, split, users, items)

    def test_same_pair_in_two_splits_passes(self):
        ds = make_tagged(2, 3, np.array([TRAIN, TEST, VALIDATION], dtype=np.int8),
                         np.array([1, 1, 1]), np.array([2, 2, 2]))
        assert len(ds) == 3

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(tagged_triples(unique=True))
    def test_train_csr_equals_lexsort_form(self, case):
        ds = make_tagged(*case)
        for tag in (TRAIN, VALIDATION, TEST):
            indptr, indices = ds.split_csr(tag)
            want_indptr, want_indices = lexsort_csr(ds, tag)
            for got, want in ((indptr, want_indptr), (indices, want_indices)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    def test_train_csr_with_trainless_users_and_one_user(self):
        ds = make_tagged(4, 6, np.array([TEST, TRAIN, TRAIN, TEST, TRAIN], dtype=np.int8),
                         np.array([0, 2, 2, 3, 2]), np.array([1, 5, 0, 4, 3]))
        indptr, indices = ds.split_csr(TRAIN)
        assert indptr.tolist() == [0, 0, 0, 3, 3]
        assert indices.tolist() == [0, 3, 5]
        one = make_tagged(1, 4, np.zeros(3, dtype=np.int8), np.zeros(3, dtype=np.int64),
                          np.array([3, 0, 2]))
        for got, want in zip(one.split_csr(TRAIN), lexsort_csr(one)):
            assert np.array_equal(got, want)
        assert one.train_items(0).tolist() == [0, 2, 3]


class TestDatasetInvariants:
    def test_adjacency_covers_exactly_train_pairs(self, tiny_dataset):
        ds = split_dataset(tiny_dataset, (0.5, 0.0, 0.5), seed=0)
        tr = ds.split_indices(TRAIN)
        pairs = {(int(u), int(i)) for u, i in zip(ds.users[tr], ds.items[tr])}
        listed = {(u, int(i)) for u in range(ds.n) for i in ds.train_items(u)}
        assert pairs == listed

    def test_duplicate_within_split_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            InteractionDataset(n=2, m=2, users=np.array([0, 0]), items=np.array([1, 1]),
                               ratings=np.ones(2), split=np.zeros(2, dtype=np.int8))

    def test_index_out_of_range_rejected(self):
        with pytest.raises(DataError):
            InteractionDataset(n=1, m=2, users=np.array([1]), items=np.array([0]),
                               ratings=np.ones(1), split=np.zeros(1, dtype=np.int8))

    def test_one_hot_matrix_helper(self):
        fields = make_fields(["f"], [["a", "b", "c"]])
        mat = one_hot_matrix(np.array([[0], [2], [-1]]), fields)
        assert mat.values[0, 0] == 1.0
        assert mat.values[1, 2] == 1.0
        assert mat.values[2, fields[0].blank_index] == 1.0
