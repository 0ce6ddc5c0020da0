package alert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Load reads a rule set from a JSON file of the form
//
//	{"rules": [{"name": "...", "metric": "...", "threshold": 5000,
//	            "window": 0, "severity": "critical"}, ...]}
//
// and validates it. An empty path returns Defaults(), so callers can
// pass a -rules flag value straight through.
func Load(path string) (RuleSet, error) {
	if path == "" {
		return Defaults(), nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return RuleSet{}, err
	}
	var rs RuleSet
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rs); err != nil {
		return RuleSet{}, fmt.Errorf("rules %s: %w", path, err)
	}
	if len(rs.Rules) == 0 {
		return RuleSet{}, fmt.Errorf("rules %s: no rules", path)
	}
	if err := rs.Validate(); err != nil {
		return RuleSet{}, fmt.Errorf("rules %s: %w", path, err)
	}
	return rs, nil
}

// Report is the alerts.json artifact layout: the rules that were
// evaluated plus every alert they produced. No timestamps, no host
// state — the bytes are a pure function of (rules, run data), which
// is what lets CI diff the artifact across -parallel settings.
type Report struct {
	Rules  []Rule  `json:"rules"`
	Alerts []Alert `json:"alerts"`
}

// WriteJSON renders the deterministic alerts.json body.
func WriteJSON(w io.Writer, rs RuleSet, alerts []Alert) error {
	rep := Report{Rules: rs.Rules, Alerts: alerts}
	if rep.Rules == nil {
		rep.Rules = []Rule{}
	}
	if rep.Alerts == nil {
		rep.Alerts = []Alert{}
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// ReadJSONFile loads an alerts.json artifact back.
func ReadJSONFile(path string) (Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return Report{}, fmt.Errorf("alerts %s: %w", path, err)
	}
	return rep, nil
}
