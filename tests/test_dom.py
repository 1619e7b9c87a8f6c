"""DOM parse + boilerplate strip (S2'): the one-loop scanner against the
stdlib ``html.parser`` oracle (``frontend_oracle``)."""

import random

from frontend_oracle import parse_main_blocks_stdlib, rows
from hypothesis import given, settings
from hypothesis import strategies as st

from datacat_ray.fixtures import make_catalogue_html
from datacat_ray.stages.dom import (
    LINES_PER_PAGE,
    blocks_from_plain_text,
    parse_main_blocks,
)


def _scan(html: str) -> list[dict]:
    """The scanner's blocks as dicts, asserted equal to the oracle's."""
    got = rows(parse_main_blocks(html))
    assert got == parse_main_blocks_stdlib(html)
    return got


def test_strips_boilerplate_recovers_main_text():
    rng = random.Random(7)
    html, main_text = make_catalogue_html(rng, n_entries=5)
    blocks = _scan(html)
    assert "\n".join(b["text"] for b in blocks) == main_text


def test_pure_boilerplate_page_empty():
    rng = random.Random(11)
    html, main_text = make_catalogue_html(rng, pure_boilerplate=True)
    assert main_text == ""
    assert _scan(html) == []


def test_link_farm_stripped_outside_known_containers():
    html = (
        "<html><body><div>"
        '<a href="/a">aaaa</a> <a href="/b">bbbb</a> <a href="/c">cccc</a>'
        "</div><p>Real content sentence that is long enough to keep.</p></body></html>"
    )
    blocks = _scan(html)
    assert [b["text"] for b in blocks] == [
        "Real content sentence that is long enough to keep."
    ]


def test_heading_font_attrs():
    html = "<html><body><h1>TITLE HEADING LINE KEPT</h1><p>Body paragraph text long enough.</p></body></html>"
    blocks = _scan(html)
    assert blocks[0]["font_size"] == 24.0 and blocks[0]["bold"]
    assert blocks[1]["font_size"] == 12.0 and not blocks[1]["bold"]


def test_malformed_html_no_crash():
    blocks = _scan("<p>unclosed <b>bold text that simply runs on")
    assert blocks and "unclosed" in blocks[0]["text"]


def test_plain_text_fallback():
    blocks = rows(blocks_from_plain_text("line one\n\n  line two  \n"))
    assert [b["text"] for b in blocks] == ["line one", "line two"]
    assert blocks[0]["page"] == 0


def test_scanner_matches_stdlib_parser():
    """The scanner and the stdlib HTMLParser walk of the same block state
    machine give identical output on the fixture corpus and edge cases
    (script/style content is stripped on the scan path; stdlib leaks it
    when flushed after the closing tag, so scripts are excluded here)."""
    from datacat_ray.fixtures import make_pages_table

    t = make_pages_table(80, seed=13)
    for h in t["html"].to_pylist():
        if h is None:
            continue
        _scan(h.decode())
    for s in ["", "<p>a &amp; b</p>", "no tags at all",
              "<div><p>x<br/>y</p><!-- comment --></div>",
              "<p>unclosed", "&lt;notatag&gt;",
              '<nav><a href="/x">L</a></nav><p>kept body text here ok</p>',
              # link density 7/24 over 25 and 24 chars: kept, dropped
              "<p>abcdefghijklmnopq <a href=/x>qrstuvw</a></p>",
              "<p>abcdefghijklmnop <a href=/x>qrstuvw</a></p>"]:
        _scan(s)


def test_strip_realistic_boilerplate_shapes():
    """Chrome shapes beyond the fixture generator: cookie banner in an
    aside, nested nav, link-farm div, table-based layout with real
    content."""
    html = (
        "<html><body>"
        '<aside class="cookie">We use cookies. <a href="/ok">Accept</a></aside>'
        "<nav><ul><li><a href='/a'>Home</a></li><li><a href='/b'>Shop</a></li></ul></nav>"
        '<div><a href="/1">x</a> <a href="/2">y</a> <a href="/3">z</a></div>'
        "<table><tr><td>Vente du 3 mai 1901 contenant des monnaies anciennes</td></tr>"
        "<tr><td>12. Monnaies grecques: oboles ; 5 pièces. AR.</td></tr></table>"
        "<footer>Copyright 2020</footer>"
        "</body></html>"
    )
    texts = [b["text"] for b in _scan(html)]
    joined = " ".join(texts)
    assert "Vente du 3 mai 1901" in joined
    assert "12. Monnaies grecques" in joined
    assert "cookies" not in joined  # aside = chrome container
    assert "Home" not in joined and "Shop" not in joined
    assert "Copyright" not in joined
    assert all("x y z" not in t for t in texts)  # link farm: link-density kill


def test_scanner_quoted_gt_and_cdata():
    """Quoted attribute values containing '>' and CDATA sections must not
    leak attribute/CDATA remainders as text (scan == stdlib)."""
    cases = [
        '<p>before <a title="a>b" href="/x">link</a> after words here okay</p>',
        "<p>one <span title='x>y'>two</span> three four five six seven ok</p>",
        "<p>keep this text here please</p><![CDATA[junk > more]]>"
        "<p>and this second sentence too</p>",
        '<div data-x="1>2" data-y=\'3>4\'>real body sentence long enough</div>',
        '<div data-x = "1>2">spaced equals real body sentence long ok</div>',
    ]
    for s in cases:
        scan = _scan(s)
        joined = " ".join(b["text"] for b in scan)
        assert ">" not in joined and "junk" not in joined


def test_scanner_unquoted_attr_with_quote():
    """A quote inside an UNQUOTED attribute value must not open a quoted
    span (<a title=don't> swallowed following text before the fix)."""
    cases = [
        "<p>text <a title=don't href=/x>click here</a> and it's fine okay</p>",
        "<p>start <b class=rock'n>bold words in here</b> closing text ok</p>",
        "<p>lone apostrophe tag <i data-q=x'y>ital</i> trailing words ok</p>",
    ]
    for s in cases:
        scan = _scan(s)
        joined = " ".join(b["text"] for b in scan)
        for frag in ("click here", "bold words", "ital"):
            if frag in s:
                assert frag in joined


_WORDS = st.sampled_from([
    "Vente", "du", "13", "mai", "1860", "pièces", "AR.", "x", "I",
    "monnaies anciennes et modernes", "AT&T", "a>b", "l'été", '"q"',
    "&amp;", "&lt;b&gt;", "&#233;", "&#x41;", "&quot;", "&nbsp;",
])
_SPACE = st.sampled_from(["", " ", "  ", "\n", "\t "])
_TEXT = st.lists(st.tuples(_WORDS, _SPACE).map("".join), max_size=6).map(
    "".join)
_ATTRS = st.lists(st.sampled_from([
    ' href="/x"', ' title="a>b"', " data-y='3>4'", ' title = "1>2"',
    " title=don't", " class=rock'n", " href=/x", " id=x'y",
]), max_size=2).map("".join)
_CONTAINERS = st.sampled_from([
    "p", "div", "li", "ul", "td", "section", "blockquote", "header", "main",
    "nav", "footer", "aside", "noscript", "b", "strong", "i", "em", "a",
    "span", "h1", "h2", "h3", "h4", "h5", "h6", "B", "Div",
])


def _element(kids):
    return st.builds(
        lambda tag, attrs, inner: f"<{tag}{attrs}>{''.join(inner)}</{tag}>",
        _CONTAINERS, _ATTRS, st.lists(kids, max_size=4))


_FRAGMENT = st.recursive(
    st.one_of(_TEXT, st.sampled_from(["<br/>", "<br>", "<hr />", "<b/>",
                                      '<img src="/i.png"/>'])),
    _element, max_leaves=25)
# links around text of varying length: link densities on both sides of
# the boilerplate thresholds
_LINK_FARM = st.builds(
    lambda pre, n, post: f"<div>{pre}" + " ".join(
        f'<a href="/{i}">link{i}</a>' for i in range(n)) + f"{post}</div>",
    _TEXT, st.integers(1, 4), _TEXT)


@st.composite
def _documents(draw):
    frags = draw(st.lists(st.one_of(_FRAGMENT, _LINK_FARM), max_size=6))
    # enough plain paragraphs to run past a pseudo-page
    n = draw(st.sampled_from([0, 0, LINES_PER_PAGE + 5, 2 * LINES_PER_PAGE]))
    at = draw(st.integers(0, len(frags)))
    paras = [f"<p>paragraph {i} of the body text</p>" for i in range(n)]
    return "".join(frags[:at] + paras + frags[at:])


@settings(max_examples=300, deadline=None)
@given(html=_documents())
def test_scanner_matches_stdlib_on_random_html(html):
    """Random well-formed HTML (entities, quoted '>' and unquoted quotes in
    attribute values, self-closing tags, nested inline/heading/link tags,
    boilerplate containers, link-dense blocks, more than a page of
    blocks): the scanner equals the stdlib oracle."""
    blocks = _scan(html)
    assert [b["page"] for b in blocks] == [
        i // LINES_PER_PAGE for i in range(len(blocks))]
