package experiment

import (
	"fmt"
	"html/template"
	"strings"
)

// RenderHTML assembles a single self-contained HTML page: every
// experiment's tables plus the paper's figures as inline SVG — the
// one-command artifact of the whole reproduction (epstudy -html).
func RenderHTML(ids []string, opt Options) (string, error) {
	if len(ids) == 0 {
		ids = IDs()
	}
	type section struct {
		ID, Title, Paper string
		Tables           []*Table
	}
	var sections []section
	for _, id := range ids {
		e, err := Get(id)
		if err != nil {
			return "", err
		}
		tables, err := e.Run(opt)
		if err != nil {
			return "", fmt.Errorf("experiment %s: %w", id, err)
		}
		sections = append(sections, section{ID: e.ID, Title: e.Title, Paper: e.Paper, Tables: tables})
	}
	figures, err := SVGFigures(opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>energyprop: On Energy Nonproportionality of CPUs and GPUs — reproduction report</title>
<style>
body { font-family: sans-serif; max-width: 72rem; margin: 2rem auto; padding: 0 1rem; color: #222; }
table { border-collapse: collapse; margin: 0.8rem 0; font-size: 0.85rem; }
th, td { border: 1px solid #ccc; padding: 0.25rem 0.6rem; text-align: left; }
th { background: #f2f2f2; }
.note { color: #555; font-style: italic; margin: 0.2rem 0; }
.paper { color: #345; background: #eef3f8; padding: 0.5rem 0.8rem; border-left: 3px solid #69c; }
figure { margin: 1rem 0; }
h2 { border-bottom: 2px solid #ddd; padding-bottom: 0.2rem; margin-top: 2.2rem; }
</style></head><body>
<h1>energyprop reproduction report</h1>
<p>Generated deterministically by <code>epstudy -html</code>. Every table
regenerates with <code>epstudy -run &lt;id&gt;</code>.</p>
`)
	b.WriteString("<h2>Figures</h2>\n")
	for _, f := range figures {
		fmt.Fprintf(&b, "<figure>%s<figcaption>%s</figcaption></figure>\n",
			f.SVG, template.HTMLEscapeString(f.Name))
	}
	for _, s := range sections {
		fmt.Fprintf(&b, "<h2 id=%q>%s — %s</h2>\n",
			s.ID, template.HTMLEscapeString(s.ID), template.HTMLEscapeString(s.Title))
		fmt.Fprintf(&b, "<p class=\"paper\">Paper: %s</p>\n", template.HTMLEscapeString(s.Paper))
		for _, t := range s.Tables {
			fmt.Fprintf(&b, "<h3>%s</h3>\n<table><tr>", template.HTMLEscapeString(t.Title))
			for _, c := range t.Columns {
				fmt.Fprintf(&b, "<th>%s</th>", template.HTMLEscapeString(c))
			}
			b.WriteString("</tr>\n")
			for _, row := range t.Rows {
				b.WriteString("<tr>")
				for _, cell := range row {
					fmt.Fprintf(&b, "<td>%s</td>", template.HTMLEscapeString(cell))
				}
				b.WriteString("</tr>\n")
			}
			b.WriteString("</table>\n")
			for _, n := range t.Notes {
				fmt.Fprintf(&b, "<p class=\"note\">%s</p>\n", template.HTMLEscapeString(n))
			}
		}
	}
	b.WriteString("</body></html>\n")
	return b.String(), nil
}
