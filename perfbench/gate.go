package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"armvirt/internal/bench"
	"armvirt/internal/core"
)

// pins holds the digests every timed operation's output is checked
// against. The program is deterministic, so any digest change is either
// a bug or a deliberate model change; regenerate with --pin only for the
// latter (see README.md).
type pins struct {
	// Study is the sha256 of bench.WriteJSON over core.RunAll's reports:
	// the bytes `armvirt-report -json` prints.
	Study string `json:"study_json_sha256"`
	// FleetRows is the sha256 of bench.WriteJSON over PD1's rows, which
	// carry the fleet checksum.
	FleetRows string `json:"fleet_rows_sha256"`
	// Bodies maps bodyKey(id, format) to the served body's digest and
	// size; json bodies are the `armvirt-report -only ID -json` bytes.
	Bodies map[string]pinnedBody `json:"bodies"`
}

type pinnedBody struct {
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
}

//go:embed pins.json
var pinsJSON []byte

// formats are the /v1/experiments/{id} renderings the serve workloads
// request.
var formats = []string{"text", "json", "rows"}

func bodyKey(id, format string) string { return id + "/" + format }

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	if p.Study == "" || p.FleetRows == "" {
		return p, fmt.Errorf("pins.json is incomplete; regenerate it with --pin")
	}
	for _, k := range servedKeys() {
		if _, ok := p.Bodies[k]; !ok {
			return p, fmt.Errorf("pins.json has no digest for %s; regenerate it with --pin", k)
		}
	}
	return p, nil
}

// studyJSON renders reports exactly as `armvirt-report -json` does.
func studyJSON(reports []core.Report) ([]byte, error) {
	var buf bytes.Buffer
	err := bench.WriteJSON(&buf, reports)
	return buf.Bytes(), err
}

// fleetJSON renders PD1's rows, checksum included.
func fleetJSON(r bench.FleetResult) ([]byte, error) {
	var buf bytes.Buffer
	err := bench.WriteJSON(&buf, r.Rows())
	return buf.Bytes(), err
}

// renderBody renders one report in a served format, with the same calls
// the serve handler makes.
func renderBody(rep core.Report, format string) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	switch format {
	case "json":
		err = bench.WriteJSON(&buf, []core.Report{rep})
	case "rows":
		err = bench.WriteRowsJSON(&buf, rep.Result)
	default:
		buf.WriteString(rep.Result.Render())
	}
	return buf.Bytes(), err
}

// studyRows decodes every row of a study JSON document.
func studyRows(doc []byte) ([]row, error) {
	var reports []struct {
		Rows []row `json:"rows"`
	}
	if err := json.Unmarshal(doc, &reports); err != nil {
		return nil, err
	}
	var rows []row
	for _, r := range reports {
		rows = append(rows, r.Rows...)
	}
	return rows, nil
}

// writePins computes every digest from a fresh serial study and writes
// them to path.
func writePins(path string) error {
	reports := core.RunAll(context.Background(), 1)
	for _, r := range reports {
		if r.Err != nil {
			return r.Err
		}
	}
	doc, err := studyJSON(reports)
	if err != nil {
		return err
	}
	p := pins{Study: digest(doc), Bodies: make(map[string]pinnedBody)}
	for _, rep := range reports {
		if rep.ID == "PD1" {
			fl, err := fleetJSON(rep.Result.(bench.FleetResult))
			if err != nil {
				return err
			}
			p.FleetRows = digest(fl)
		}
		for _, f := range formats {
			b, err := renderBody(rep, f)
			if err != nil {
				return err
			}
			p.Bodies[bodyKey(rep.ID, f)] = pinnedBody{SHA256: digest(b), Bytes: len(b)}
		}
	}
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// servedKeys lists every (id, format) pair in registry order.
func servedKeys() []string {
	var keys []string
	for _, e := range core.Experiments() {
		for _, f := range formats {
			keys = append(keys, bodyKey(e.ID, f))
		}
	}
	return keys
}
