package bench

import (
	"encoding/json"
	"io"
)

// WriteJSON writes v as two-space-indented JSON followed by a newline —
// the one encoder configuration every armvirt tool and the serve
// endpoints share. Using a single encoder everywhere is what lets the
// serve cache's bytes diff clean against CLI output.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteRowsJSON writes the results' machine-readable rows as an array of
// row arrays, one per result in argument order — the shape of serve's
// ?format=rows bodies. armvirt-report -only <ID> -json carries the same
// rows inside its report object.
func WriteRowsJSON(w io.Writer, results ...Result) error {
	out := make([][]Row, len(results))
	for i, r := range results {
		out[i] = r.Rows()
	}
	return WriteJSON(w, out)
}
