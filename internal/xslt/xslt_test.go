package xslt

import (
	"errors"
	"html"
	"strings"
	"testing"

	"repro/internal/xmlx"
)

func parseDoc(t *testing.T, src string) *xmlx.Node {
	t.Helper()
	doc, err := xmlx.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

const xslOpen = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">`

// rootTemplate is a stylesheet whose one template matches "/" with body.
func rootTemplate(body string) string {
	return xslOpen + `<xsl:template match="/">` + body + `</xsl:template></xsl:stylesheet>`
}

// valueOf is a stylesheet printing the string value of select, evaluated at
// the document root, inside a <r> element.
func valueOf(sel string) string {
	return rootTemplate(`<r><xsl:value-of select="` + html.EscapeString(sel) + `"/></r>`)
}

// evalSelect returns the string value of sel evaluated at doc's root.
func evalSelect(t *testing.T, sel, doc string) string {
	t.Helper()
	sheet, err := ParseStylesheet([]byte(valueOf(sel)))
	if err != nil {
		t.Fatalf("ParseStylesheet(select=%q): %v", sel, err)
	}
	out, err := sheet.TransformDocument(parseDoc(t, doc))
	if err != nil {
		t.Fatalf("TransformDocument(select=%q): %v", sel, err)
	}
	return out.TextContent()
}

// refused asserts that ParseStylesheet rejects src with ErrStylesheet.
func refused(t *testing.T, src string) {
	t.Helper()
	if _, err := ParseStylesheet([]byte(src)); !errors.Is(err, ErrStylesheet) {
		t.Errorf("ParseStylesheet: err = %v, want ErrStylesheet for\n%s", err, src)
	}
}

const catalogDoc = `<catalog>
  <book lang="en"><title>A</title><price>10</price><tags><t>x</t><t>y</t></tags></book>
  <book lang="de"><title>B</title><price>25</price><tags><t>z</t></tags></book>
  <book lang="en"><title>C</title><price>7</price><tags></tags></book>
</catalog>`

func TestXPathPaths(t *testing.T) {
	tests := []struct {
		expr string
		want string
	}{
		{"catalog/book/title", "A"},                         // first node's string-value
		{"/catalog/book/title", "A"},                        // absolute path
		{"catalog/missing", ""},                             // empty node-set
		{"count(catalog/book)", "3"},                        // count
		{"count(catalog/book/tags/t)", "3"},                 // count across parents
		{"catalog/book[title='B']/price", "25"},             // = predicate
		{"catalog/book[tags/t = \"z\"]/title", "B"},         // predicate path, either quote
		{"count(catalog/book[tags/t])", "2"},                // existence predicate
		{"count(catalog/book[title='B'][price='25'])", "1"}, // chained predicates
	}
	for _, tt := range tests {
		t.Run(tt.expr, func(t *testing.T) {
			if got := evalSelect(t, tt.expr, catalogDoc); got != tt.want {
				t.Errorf("got %q, want %q", got, tt.want)
			}
		})
	}
	// Expressions outside the subset, each now refused.
	for _, expr := range []string{
		"/catalog/book[2]/title",                          // positional predicate
		"count(//t)",                                      // descendant axis
		"catalog/book[price > 8]/title",                   // relational operator
		"count(catalog/book[price > 8])",                  // relational operator
		"catalog/book[@lang='de']/title",                  // attribute axis
		"count(catalog/book[@lang='en'])",                 // attribute axis
		"sum(catalog/book/price)",                         // sum()
		"catalog/book[last()]/title",                      // last()
		"catalog/book[position()=2]/title",                // position()
		"concat('x', '-', catalog/book/title)",            // concat()
		"string-length(catalog/book/title)",               // string-length()
		"count(catalog/book/tags/t | catalog/book/title)", // union
		"number(catalog/book[1]/price) + 5",               // arithmetic
		"20 div 4",                                        // div
		"7 mod 3",                                         // mod
		"-catalog/book[1]/price",                          // unary minus
		"normalize-space('  a  b ')",                      // normalize-space()
		"name(catalog/book[1])",                           // name()
		"catalog/book[1]/../book[3]/title",                // parent axis
		"catalog/book[1]/title/text()",                    // text() step
	} {
		t.Run(expr, func(t *testing.T) { refused(t, valueOf(expr)) })
	}
}

// TestXPathStringAndNumberFunctions: none of XPath's string and number
// functions is in the subset.
func TestXPathStringAndNumberFunctions(t *testing.T) {
	for _, expr := range []string{
		"substring('12345', 2)",
		"substring('12345', 2, 3)",
		"substring('12345', 0, 3)",
		"substring('12345', 9)",
		"substring-before('1999/04/01', '/')",
		"substring-after('1999/04/01', '/')",
		"substring-before('abc', 'z')",
		"translate('bar', 'abc', 'ABC')",
		"translate('--aaa--', 'a-', 'A')",
		"floor(2.7)",
		"ceiling(2.1)",
		"round(2.5)",
		"round(-1.4)",
	} {
		t.Run(expr, func(t *testing.T) { refused(t, valueOf(expr)) })
	}
}

func TestXPathBooleans(t *testing.T) {
	tests := []struct {
		expr string
		want string
	}{
		{"catalog/book/price = '25'", "true"}, // existential over the node-set
		{"catalog/book/price = '11'", "false"},
		{"catalog/book[title='B']/price = '10'", "false"},
		{"catalog/missing = ''", "false"}, // an empty node-set equals nothing
	}
	for _, tt := range tests {
		t.Run(tt.expr, func(t *testing.T) {
			if got := evalSelect(t, tt.expr, catalogDoc); got != tt.want {
				t.Errorf("got %q, want %q", got, tt.want)
			}
		})
	}
	// Boolean expressions outside the subset, each now refused.
	for _, expr := range []string{
		"count(catalog/book) = 3",
		"count(catalog/book) != 3",
		"catalog/book/price = 25", // number literal
		"catalog/book/price = 11",
		"catalog/book[1]/price < 11 and catalog/book[2]/price > 11",
		"true() or false()",
		"not(false())",
		"contains('hello', 'ell')",
		"starts-with('hello', 'he')",
		"starts-with('hello', 'lo')",
		"boolean(catalog/missing)",
		"boolean(catalog/book)",
		"'a' = 'a'", // literal on the left
		"1 <= 1",
	} {
		t.Run(expr, func(t *testing.T) { refused(t, valueOf(expr)) })
	}
}

func TestXPathErrors(t *testing.T) {
	for _, src := range []string{
		"", "catalog/", "foo(", "count(1, 2, 3", "'unterminated",
		"catalog/book[", "1 +", "@", "nosuchfn(1)",
	} {
		t.Run(src, func(t *testing.T) { refused(t, valueOf(src)) })
	}
}

// TestRemovedConstructsRefused: every instruction, pattern, operator,
// function and axis outside the subset makes ParseStylesheet fail with
// ErrStylesheet rather than be ignored or yield a partial result tree.
func TestRemovedConstructsRefused(t *testing.T) {
	cases := map[string]string{
		"apply-templates":          rootTemplate(`<r><xsl:apply-templates/></r>`),
		"if":                       rootTemplate(`<r><xsl:if test="a"><x/></xsl:if></r>`),
		"choose":                   rootTemplate(`<r><xsl:choose><xsl:when test="a"><x/></xsl:when><xsl:otherwise><y/></xsl:otherwise></xsl:choose></r>`),
		"element":                  rootTemplate(`<xsl:element name="r"/>`),
		"attribute":                rootTemplate(`<r><xsl:attribute name="n">v</xsl:attribute></r>`),
		"text":                     rootTemplate(`<r><xsl:text>lit</xsl:text></r>`),
		"variable":                 rootTemplate(`<xsl:variable name="v" select="a"/><r/>`),
		"top-level variable":       xslOpen + `<xsl:variable name="v" select="a"/><xsl:template match="/"><r/></xsl:template></xsl:stylesheet>`,
		"copy":                     rootTemplate(`<xsl:copy/>`),
		"copy-of":                  rootTemplate(`<r><xsl:copy-of select="a"/></r>`),
		"inside for-each":          rootTemplate(`<r><xsl:for-each select="a"><xsl:copy/></xsl:for-each></r>`),
		"for-each count()":         rootTemplate(`<r><xsl:for-each select="count(a)"><x/></xsl:for-each></r>`),
		"for-each boolean":         rootTemplate(`<r><xsl:for-each select="a = 'x'"><x/></xsl:for-each></r>`),
		"value-of no select":       rootTemplate(`<r><xsl:value-of/></r>`),
		"attribute value template": rootTemplate(`<r n="{a}"/>`),
	}
	for _, pat := range []string{"*", "text()", "a/*", "a//b", "//a", "a|b", "@x", "node()", "a[1]", "."} {
		cases["pattern "+pat] = xslOpen + `<xsl:template match="` + pat + `"><r/></xsl:template></xsl:stylesheet>`
	}
	for _, sel := range []string{
		// operators, literals and variables
		"a or b", "a and b", "a != 'x'", "a < 'x'", "a <= 'x'", "a > 'x'", "a >= 'x'",
		"a + b", "a - b", "a * b", "a div b", "a mod b", "-a", "a | b",
		"a = 1", "a = b", "1", "'lit'", "$v", "count(a) = '1'",
		// predicates
		"a[1]", "a[last()]", "a[position()=1]", "a[count(b)]", "a[b != 'x']",
		// axes and node tests
		"//a", "a//b", "@x", "a/@x", ".", "..", "a/..", "a/.", "*", "a/*", "a/text()", "a/node()",
	} {
		cases["select "+sel] = valueOf(sel)
	}
	for _, fn := range []string{
		"sum", "position", "last", "not", "true", "false", "number", "string",
		"boolean", "concat", "contains", "starts-with", "string-length",
		"normalize-space", "substring", "substring-before", "substring-after",
		"translate", "floor", "ceiling", "round", "name", "local-name",
	} {
		cases["function "+fn] = valueOf(fn + "(a)")
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { refused(t, src) })
	}
}

// channelOpenV2XSL is the XSLT equivalent of the paper's Figure 5,
// converting ChannelOpenResponse v2.0 documents to v1.0.
const channelOpenV2XSL = `<?xml version="1.0"?>
<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="/ChannelOpenResponse">
<ChannelOpenResponse>
  <member_count><xsl:value-of select="member_count"/></member_count>
  <member_list>
    <xsl:for-each select="member_list/MemberV2">
      <MemberEntry><info><xsl:value-of select="info"/></info><ID><xsl:value-of select="ID"/></ID></MemberEntry>
    </xsl:for-each>
  </member_list>
  <src_count><xsl:value-of select="count(member_list/MemberV2[is_Source='true'])"/></src_count>
  <src_list>
    <xsl:for-each select="member_list/MemberV2[is_Source='true']">
      <MemberEntry><info><xsl:value-of select="info"/></info><ID><xsl:value-of select="ID"/></ID></MemberEntry>
    </xsl:for-each>
  </src_list>
  <sink_count><xsl:value-of select="count(member_list/MemberV2[is_Sink='true'])"/></sink_count>
  <sink_list>
    <xsl:for-each select="member_list/MemberV2[is_Sink='true']">
      <MemberEntry><info><xsl:value-of select="info"/></info><ID><xsl:value-of select="ID"/></ID></MemberEntry>
    </xsl:for-each>
  </sink_list>
</ChannelOpenResponse>
</xsl:template>
</xsl:stylesheet>`

const v2Doc = `<ChannelOpenResponse>
<member_count>3</member_count>
<member_list>
  <MemberV2><info>tcp:a:1</info><ID>7</ID><is_Source>true</is_Source><is_Sink>false</is_Sink></MemberV2>
  <MemberV2><info>tcp:b:2</info><ID>7</ID><is_Source>false</is_Source><is_Sink>true</is_Sink></MemberV2>
  <MemberV2><info>tcp:c:3</info><ID>7</ID><is_Source>true</is_Source><is_Sink>true</is_Sink></MemberV2>
</member_list>
</ChannelOpenResponse>`

func TestChannelOpenResponseTransformation(t *testing.T) {
	sheet, err := ParseStylesheet([]byte(channelOpenV2XSL))
	if err != nil {
		t.Fatalf("ParseStylesheet: %v", err)
	}
	result, err := sheet.TransformDocument(parseDoc(t, v2Doc))
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if result.Name != "ChannelOpenResponse" {
		t.Fatalf("result root = %q", result.Name)
	}
	get := func(name string) string { return result.Child(name).TextContent() }
	if get("member_count") != "3" {
		t.Errorf("member_count = %q", get("member_count"))
	}
	if get("src_count") != "2" {
		t.Errorf("src_count = %q", get("src_count"))
	}
	if get("sink_count") != "2" {
		t.Errorf("sink_count = %q", get("sink_count"))
	}
	srcs := result.Child("src_list").ChildElements()
	if len(srcs) != 2 ||
		srcs[0].Child("info").TextContent() != "tcp:a:1" ||
		srcs[1].Child("info").TextContent() != "tcp:c:3" {
		t.Errorf("src_list wrong: %s", xmlx.Render(result.Child("src_list")))
	}
	sinks := result.Child("sink_list").ChildElements()
	if len(sinks) != 2 || sinks[0].Child("info").TextContent() != "tcp:b:2" {
		t.Errorf("sink_list wrong: %s", xmlx.Render(result.Child("sink_list")))
	}
	members := result.Child("member_list").ChildElements()
	if len(members) != 3 || members[2].Child("ID").TextContent() != "7" {
		t.Errorf("member_list wrong")
	}
}

func TestTemplateSelectionAndBuiltins(t *testing.T) {
	sheet, err := ParseStylesheet([]byte(xslOpen +
		`<xsl:template match="b"><hit k="v"><xsl:value-of select="c"/></hit></xsl:template></xsl:stylesheet>`))
	if err != nil {
		t.Fatal(err)
	}
	// No template for root or <a>: built-in rules recurse; text copied. A
	// literal result element keeps its attributes.
	got := string(xmlx.Render(sheet.transform(parseDoc(t, "<a>plain<b><c>X</c></b>tail</a>"))))
	if got != `plain<hit k="v">X</hit>tail` {
		t.Errorf("result = %q", got)
	}
}

func TestTemplatePriority(t *testing.T) {
	// A path or absolute pattern (0.5) beats a name (0); between equal
	// priorities the later template wins. Unmatched <r>, <a> and <b> go
	// through the built-in rule to their children.
	sheet, err := ParseStylesheet([]byte(xslOpen + `
<xsl:template match="a/x"><path/></xsl:template>
<xsl:template match="x"><name/></xsl:template>
<xsl:template match="r/a/x"><later/></xsl:template>
<xsl:template match="/r/x"><abs/></xsl:template>
</xsl:stylesheet>`))
	if err != nil {
		t.Fatal(err)
	}
	got := string(xmlx.Render(sheet.transform(parseDoc(t, "<r><a><x/></a><b><x/></b><x/></r>"))))
	if want := "<later></later><name></name><abs></abs>"; got != want {
		t.Errorf("result = %q, want %q", got, want)
	}

	// "/" matches only the document root, so it shadows the built-in rule
	// there and nothing below is visited.
	root, err := ParseStylesheet([]byte(xslOpen + `
<xsl:template match="/"><top/></xsl:template>
<xsl:template match="x"><name/></xsl:template>
</xsl:stylesheet>`))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(xmlx.Render(root.transform(parseDoc(t, "<x/>")))); got != "<top></top>" {
		t.Errorf("result = %q, want the / template", got)
	}
}

// TestChooseIfElementAttribute: a stylesheet using xsl:attribute,
// xsl:choose, xsl:if, xsl:element, xsl:text and xsl:copy-of is refused.
func TestChooseIfElementAttribute(t *testing.T) {
	refused(t, xslOpen+`
<xsl:template match="/n">
  <out>
    <xsl:attribute name="size"><xsl:value-of select="count(v)"/></xsl:attribute>
    <xsl:for-each select="v">
      <xsl:choose>
        <xsl:when test=". &gt; 10"><big><xsl:value-of select="."/></big></xsl:when>
        <xsl:otherwise><small><xsl:value-of select="."/></small></xsl:otherwise>
      </xsl:choose>
    </xsl:for-each>
    <xsl:if test="count(v) &gt; 2"><many/></xsl:if>
    <xsl:element name="made"><xsl:text>lit</xsl:text></xsl:element>
    <xsl:copy-of select="v[1]"/>
  </out>
</xsl:template>
</xsl:stylesheet>`)
}

func TestStylesheetErrors(t *testing.T) {
	bad := []struct {
		name string
		src  string
	}{
		{"not a stylesheet", "<root/>"},
		{"wrong namespace", `<xsl:stylesheet xmlns:xsl="urn:other"><xsl:template match="/"/></xsl:stylesheet>`},
		{"no templates", `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform"></xsl:stylesheet>`},
		{"template without match", `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform"><xsl:template/></xsl:stylesheet>`},
		{"bad select", `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform"><xsl:template match="/"><xsl:value-of select="((("/></xsl:template></xsl:stylesheet>`},
		{"bad pattern", `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform"><xsl:template match="a[1]"/></xsl:stylesheet>`},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) { refused(t, tt.src) })
	}
}

func TestTransformErrors(t *testing.T) {
	// TransformDocument needs exactly one root element in the result.
	for _, body := range []string{`lone text`, `<a/><b/>`} {
		sheet, err := ParseStylesheet([]byte(rootTemplate(body)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sheet.TransformDocument(parseDoc(t, "<a/>")); !errors.Is(err, ErrTransform) {
			t.Errorf("body %q: err = %v, want ErrTransform", body, err)
		}
	}
	// What used to fail only during a transformation, for-each over a
	// non-node-set and an unknown instruction, is refused up front.
	refused(t, rootTemplate(`<xsl:for-each select="count(a)"><x/></xsl:for-each>`))
	refused(t, rootTemplate(`<xsl:unknown-instruction/>`))
}

// TestTextMatchTemplate: the text() pattern and xsl:apply-templates are
// refused.
func TestTextMatchTemplate(t *testing.T) {
	refused(t, xslOpen+`
<xsl:template match="a"><xsl:apply-templates/></xsl:template>
<xsl:template match="text()"><T><xsl:value-of select="."/></T></xsl:template>
</xsl:stylesheet>`)
}

// TestStringsBuilderNotNeeded: count() renders as a plain decimal integer,
// never with an exponent.
func TestStringsBuilderNotNeeded(t *testing.T) {
	for _, tt := range []struct {
		n    int
		want string
	}{{0, "0"}, {3, "3"}, {1000, "1000"}} {
		doc := "<r>" + strings.Repeat("<v/>", tt.n) + "</r>"
		if got := evalSelect(t, "count(r/v)", doc); got != tt.want {
			t.Errorf("count of %d = %q, want %q", tt.n, got, tt.want)
		}
	}
}

// TestVariables: xsl:variable and $var references are refused.
func TestVariables(t *testing.T) {
	refused(t, xslOpen+`
<xsl:template match="/order">
  <xsl:variable name="total" select="sum(item/price)"/>
  <xsl:variable name="label">order-summary</xsl:variable>
  <summary>
    <kind><xsl:value-of select="$label"/></kind>
    <total><xsl:value-of select="$total"/></total>
    <xsl:if test="$total &gt; 20"><big/></xsl:if>
    <doubled><xsl:value-of select="$total * 2"/></doubled>
  </summary>
</xsl:template>
</xsl:stylesheet>`)
	refused(t, valueOf("$total"))
}

func TestVariableScopeIsFollowingSiblings(t *testing.T) {
	refused(t, rootTemplate(`<out>
    <inner><xsl:variable name="v" select="1"/><a><xsl:value-of select="$v"/></a></inner>
    <after><xsl:value-of select="$v"/></after>
  </out>`))
}

func TestUndefinedVariable(t *testing.T) {
	refused(t, valueOf("$missing + 1"))
	refused(t, valueOf("$"))
}

// TestXslCopyIdentityish: the identity-transform skeleton (the "*" pattern,
// xsl:copy and xsl:apply-templates) is refused.
func TestXslCopyIdentityish(t *testing.T) {
	refused(t, xslOpen+`<xsl:template match="*"><xsl:copy><xsl:apply-templates/></xsl:copy></xsl:template></xsl:stylesheet>`)
}

func TestXslCopyTextNode(t *testing.T) {
	refused(t, xslOpen+`
<xsl:template match="a"><xsl:apply-templates/></xsl:template>
<xsl:template match="text()"><wrapped><xsl:copy/></wrapped></xsl:template>
</xsl:stylesheet>`)
}
