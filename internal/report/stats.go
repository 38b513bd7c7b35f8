package report

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Stats is an ordered, sectioned list of named integer readings — the
// stable rendering surface for the instrumentation in internal/metrics,
// internal/solver and internal/netsim. Order is significant and
// preserved by both renderings, so output is diffable and goldenable.
type Stats struct {
	Sections []Section `json:"sections"`
}

// Section groups related readings under a name.
type Section struct {
	Name  string `json:"name"`
	Items []Item `json:"items"`
}

// Item is one reading. Unit is "" for plain counts and "ns" for
// wall-clock nanoseconds; "ns" items are nondeterministic and
// Deterministic drops them.
type Item struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Unit  string `json:"unit,omitempty"`
}

// Add appends a reading to the section.
func (s *Section) Add(name string, value int64, unit string) {
	s.Items = append(s.Items, Item{Name: name, Value: value, Unit: unit})
}

// AddInt appends a plain count.
func (s *Section) AddInt(name string, value int) { s.Add(name, int64(value), "") }

// Deterministic returns a copy with timing ("ns") items and then-empty
// sections removed — the view compared against committed baselines,
// where only run-independent counters belong.
func (s Stats) Deterministic() Stats {
	var out Stats
	for _, sec := range s.Sections {
		kept := Section{Name: sec.Name}
		for _, it := range sec.Items {
			if it.Unit != "ns" {
				kept.Items = append(kept.Items, it)
			}
		}
		if len(kept.Items) > 0 {
			out.Sections = append(out.Sections, kept)
		}
	}
	return out
}

// Get returns the named item's value, searching all sections.
func (s Stats) Get(section, name string) (int64, bool) {
	for _, sec := range s.Sections {
		if sec.Name != section {
			continue
		}
		for _, it := range sec.Items {
			if it.Name == name {
				return it.Value, true
			}
		}
	}
	return 0, false
}

// Text renders the stats as aligned plain text, one section header per
// group, stable across runs for equal inputs.
func (s Stats) Text() string {
	var b strings.Builder
	nameW := 0
	for _, sec := range s.Sections {
		for _, it := range sec.Items {
			if len(it.Name) > nameW {
				nameW = len(it.Name)
			}
		}
	}
	for i, sec := range s.Sections {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "[%s]\n", sec.Name)
		for _, it := range sec.Items {
			if it.Unit != "" {
				fmt.Fprintf(&b, "  %-*s  %d %s\n", nameW, it.Name, it.Value, it.Unit)
			} else {
				fmt.Fprintf(&b, "  %-*s  %d\n", nameW, it.Name, it.Value)
			}
		}
	}
	return b.String()
}

// JSON renders the stats as indented JSON with section and item order
// preserved.
func (s Stats) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
