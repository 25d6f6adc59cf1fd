// Package srv is the surface fixture's service: one route and one JSON
// type. A flag outside cmd/ and examples/ is not surface.
package srv

import (
	"flag"
	"net/http"
)

// Spec is the fixture's JSON type; its untagged field is not surface.
type Spec struct {
	N     int    `json:"n"`
	Label string `json:"label,omitempty"`
	note  string
}

var verbose = flag.Bool("verbose", false, "not surface: not under cmd/ or examples/")

// Handler serves the fixture's one route.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) {})
	return mux
}
