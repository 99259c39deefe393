//go:build poison

package recycle

// Poison asks every owner of a List to fill what it releases with 0xA5,
// so that a read after release shows up as a wrong result, a refused
// frame or a changed transcript; build with -tags poison to turn it on.
const Poison = true
