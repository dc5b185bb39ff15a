// Command solved serves solve-as-a-service over HTTP: a thin facade
// (internal/solved) on the sharded stream scheduler that turns POSTed
// linear systems into streamed solve tickets and the runtime's typed
// failures into status codes — 429 + Retry-After when every queue is
// full, 504 on missed deadlines, 422 with the pivot index on singular
// systems. GET /stats exposes per-shard queue depths and the stream
// counters for dashboards.
//
// Usage:
//
//	solved -addr :8080 -shards 4 -queue 64 -policy shed -w 4
//
// Try it:
//
//	curl -s localhost:8080/solve -d '{"a":[[4,1],[1,3]],"d":[1,2],"w":2}'
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/solved"
	"repro/internal/stream"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 0, "stream shards (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "per-shard queue bound (0 = default)")
	policy := flag.String("policy", "shed", "admission when saturated: block or shed")
	w := flag.Int("w", 4, "default simulated array size for requests that omit w; requests may ask for at most max(n, this)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	flag.Parse()

	var pol stream.Policy
	switch *policy {
	case "block":
		pol = stream.Block
	case "shed":
		pol = stream.Shed
	default:
		fmt.Fprintf(os.Stderr, "solved: unknown -policy %q (want block or shed)\n", *policy)
		os.Exit(2)
	}

	s := stream.New(stream.Config{Shards: *shards, QueueBound: *queue, Policy: pol})
	defer s.Close()
	srv := solved.New(solved.Config{Stream: s, W: *w, RetryAfter: *retryAfter})
	log.Printf("solved: serving on %s (%d shards, %s admission)", *addr, s.Shards(), pol)
	log.Fatal(http.ListenAndServe(*addr, srv))
}
