package load

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseShapes parses the CLI shape-mix syntax shared by maxload and
// maxcap: comma-separated ROWSxCOLS/b=WIDTH entries, each with an
// optional *WEIGHT suffix (default 1), e.g. "4x4/b=8*3,2x8/b=8*1".
func ParseShapes(s string) ([]ShapeWeight, error) {
	var out []ShapeWeight
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		sw := ShapeWeight{Weight: 1}
		if star := strings.LastIndex(entry, "*"); star >= 0 {
			w, err := strconv.ParseFloat(entry[star+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("load: shape %q: bad weight: %v", entry, err)
			}
			sw.Weight = w
			entry = entry[:star]
		}
		for i, part := range strings.Split(entry, "/") {
			switch {
			case i == 0:
				if _, err := fmt.Sscanf(part, "%dx%d", &sw.Rows, &sw.Cols); err != nil {
					return nil, fmt.Errorf("load: shape %q: want ROWSxCOLS, got %q", entry, part)
				}
			case strings.HasPrefix(part, "b="):
				w, err := strconv.Atoi(part[2:])
				if err != nil {
					return nil, fmt.Errorf("load: shape %q: bad width %q", entry, part)
				}
				sw.Width = w
			default:
				return nil, fmt.Errorf("load: shape %q: unknown segment %q", entry, part)
			}
		}
		if sw.Width == 0 {
			return nil, fmt.Errorf("load: shape %q: missing /b=WIDTH", entry)
		}
		out = append(out, sw)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("load: empty shape mix")
	}
	return out, nil
}
