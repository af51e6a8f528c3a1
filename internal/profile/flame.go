package profile

import (
	"embed"
	"encoding/json"
	"html/template"
	"io"
)

//go:embed flame.html
var flameFS embed.FS

var flameTmpl = template.Must(template.ParseFS(flameFS, "flame.html"))

// flameView is the template payload: the profile serialized once as
// JSON for the inline script. json.Marshal escapes <, > and & by
// default, so the payload cannot break out of the script element.
type flameView struct {
	Title string
	JSON  template.JS
}

// WriteFlameHTML renders the self-contained flame-graph page (atlas
// style: no external assets, archivable as a single artifact). The
// icicle is phase → function → block → instruction, cell width
// proportional to dynamic instruction count, with the per-opcode table
// and phase/throughput summaries alongside.
func (p *Profile) WriteFlameHTML(w io.Writer, title string) error {
	b, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return flameTmpl.Execute(w, flameView{Title: title, JSON: template.JS(b)})
}
