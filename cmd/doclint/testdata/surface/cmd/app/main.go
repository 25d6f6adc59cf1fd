// Command app is the surface fixture's command: two flags a smoke line
// sets, one a deployment sets, and a positional argument.
package main

import (
	"flag"
	"fmt"
	"net/http"

	"surface/internal/srv"
)

func main() {
	n := flag.Int("n", 1, "size")
	fast := flag.Bool("fast", false, "fast mode")
	var addr string
	flag.StringVar(&addr, "addr", "localhost:8080", "server address")
	flag.Parse()
	if _, err := http.Get("http://" + addr + "/ping"); err != nil {
		fmt.Println(err)
	}
	fmt.Println(srv.Spec{N: *n, Label: flag.Arg(0)}, *fast)
}
