package load

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseShape parses the CLI shape syntax shared by maxload and maxcap:
// one ROWSxCOLS/b=WIDTH entry, e.g. "4x4/b=8". A target serves one
// model, so a comma-separated list or a *WEIGHT suffix is refused by
// name, not read as a mix.
func ParseShape(s string) (Shape, error) {
	if strings.ContainsAny(s, ",*") {
		return Shape{}, fmt.Errorf("load: shape %q: want one ROWSxCOLS/b=WIDTH entry; a list or a *WEIGHT suffix is not accepted (a target serves one model)", s)
	}
	dims, width, ok := strings.Cut(strings.TrimSpace(s), "/b=")
	if !ok {
		return Shape{}, fmt.Errorf("load: shape %q: missing /b=WIDTH", s)
	}
	rows, cols, _ := strings.Cut(dims, "x")
	var sh Shape
	var errR, errC, errW error
	sh.Rows, errR = strconv.Atoi(rows)
	sh.Cols, errC = strconv.Atoi(cols)
	sh.Width, errW = strconv.Atoi(width)
	if errR != nil || errC != nil {
		return Shape{}, fmt.Errorf("load: shape %q: want ROWSxCOLS, got %q", s, dims)
	}
	if errW != nil {
		return Shape{}, fmt.Errorf("load: shape %q: bad width %q", s, width)
	}
	return sh, sh.validate()
}
