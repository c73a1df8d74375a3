package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file is the series-key algebra the fleet aggregation plane
// (internal/obs/fleetobs) runs on: a canonical key like
// name{k="v",...} can be parsed back into (family, tags), re-tagged
// with a partition label, and a whole Snapshot — local or scraped from
// a remote member — can be re-rendered in the Prometheus text format
// without access to the Registry that produced it.

// ParseKey splits a canonical series id back into its family name and
// sorted tag list, undoing renderKey's escaping.  A malformed key is
// returned as an untagged family so callers degrade gracefully.
func ParseKey(key string) (family string, tags []Tag) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key, nil
	}
	family = key[:i]
	body := key[i+1:]
	body = strings.TrimSuffix(body, "}")
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			break
		}
		k := body[:eq]
		rest := body[eq+2:]
		var sb strings.Builder
		j := 0
		for j < len(rest) {
			c := rest[j]
			if c == '\\' && j+1 < len(rest) {
				switch rest[j+1] {
				case 'n':
					sb.WriteByte('\n')
				default:
					sb.WriteByte(rest[j+1])
				}
				j += 2
				continue
			}
			if c == '"' {
				break
			}
			sb.WriteByte(c)
			j++
		}
		tags = append(tags, Tag{K: k, V: sb.String()})
		rest = rest[j:]
		if strings.HasPrefix(rest, `",`) {
			body = rest[2:]
		} else {
			body = ""
		}
	}
	return family, tags
}

// TagValue returns the value of tag k in a canonical series id, or ""
// when the key carries no such tag.
func TagValue(key, k string) string {
	_, tags := ParseKey(key)
	for _, t := range tags {
		if t.K == k {
			return t.V
		}
	}
	return ""
}

// AddTags returns the canonical id for key with extra tags merged in;
// an extra tag whose name the key already carries replaces the old
// value (the aggregator owns the partition label even if a member
// already stamped one).
func AddTags(key string, extra ...Tag) string {
	if len(extra) == 0 {
		return key
	}
	family, tags := ParseKey(key)
	for _, e := range extra {
		replaced := false
		for i := range tags {
			if tags[i].K == e.K {
				tags[i].V = e.V
				replaced = true
				break
			}
		}
		if !replaced {
			tags = append(tags, e)
		}
	}
	return renderKey(sanitizeName(family), normTags(tags))
}

// WithTags returns a copy of the snapshot with extra tags merged into
// every series key.  The fleet plane uses it to stamp each member's
// scrape with its partition label before merging.
func (s Snapshot) WithTags(extra ...Tag) Snapshot {
	out := Snapshot{
		Counters: make(map[string]uint64, len(s.Counters)),
		Hists:    make(map[string]HistView, len(s.Hists)),
	}
	for k, v := range s.Counters {
		out.Counters[AddTags(k, extra...)] = v
	}
	for k, v := range s.Hists {
		out.Hists[AddTags(k, extra...)] = v
	}
	return out
}

// Merge returns the union of two snapshots: counters and histograms
// sum where keys collide.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]uint64, len(s.Counters)+len(o.Counters)),
		Hists:    make(map[string]HistView, len(s.Hists)+len(o.Hists)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range o.Counters {
		out.Counters[k] += v
	}
	for k, v := range s.Hists {
		out.Hists[k] = v
	}
	for k, v := range o.Hists {
		out.Hists[k] = out.Hists[k].Merge(v)
	}
	return out
}

// TotalWhere sums the family's counter series whose tags include want.
func (s Snapshot) TotalWhere(family string, want Tag) uint64 {
	family = sanitizeName(family)
	var t uint64
	for k, v := range s.Counters {
		if familyOf(k) == family && TagValue(k, want.K) == want.V {
			t += v
		}
	}
	return t
}

// HistWhere merges the family's histogram series whose tags include
// want.
func (s Snapshot) HistWhere(family string, want Tag) HistView {
	family = sanitizeName(family)
	var out HistView
	for k, v := range s.Hists {
		if familyOf(k) == family && TagValue(k, want.K) == want.V {
			out = out.Merge(v)
		}
	}
	return out
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4), sorted by series id with one
// TYPE line per family.  Registry.WritePrometheus renders its snapshot
// through it.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	type row struct {
		key    string
		family string
		kind   seriesKind
	}
	rows := make([]row, 0, len(s.Counters)+len(s.Hists))
	for k := range s.Counters {
		rows = append(rows, row{key: k, family: familyOf(k), kind: kindCounter})
	}
	for k := range s.Hists {
		rows = append(rows, row{key: k, family: familyOf(k), kind: kindHist})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	lastFamily, lastKind := "", seriesKind(0)
	for _, rw := range rows {
		if rw.family != lastFamily || rw.kind != lastKind {
			lastFamily, lastKind = rw.family, rw.kind
			t := "counter"
			if rw.kind == kindHist {
				t = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", rw.family, t); err != nil {
				return err
			}
		}
		switch rw.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", rw.key, s.Counters[rw.key]); err != nil {
				return err
			}
		case kindHist:
			family, tags := ParseKey(rw.key)
			if err := writePromHistKey(w, family, tags, s.Hists[rw.key]); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHistKey renders one histogram series from its parsed
// (family, tags) identity: cumulative _bucket lines for every non-empty
// bucket plus +Inf, then _sum and _count.
func writePromHistKey(w io.Writer, name string, tags []Tag, v HistView) error {
	var cum uint64
	for i, n := range v.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		le := fmt.Sprintf("%d", bucketUpper(i))
		bt := append(append([]Tag{}, tags...), T("le", le))
		if _, err := fmt.Fprintf(w, "%s %d\n", renderKey(name+"_bucket", normTags(bt)), cum); err != nil {
			return err
		}
	}
	infTags := append(append([]Tag{}, tags...), T("le", "+Inf"))
	if _, err := fmt.Fprintf(w, "%s %d\n", renderKey(name+"_bucket", normTags(infTags)), v.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", renderKey(name+"_sum", tags), v.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", renderKey(name+"_count", tags), v.Count)
	return err
}
