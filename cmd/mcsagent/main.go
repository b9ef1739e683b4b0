// Command mcsagent simulates a crowd of users — honest participants and
// Sybil attackers — driving a running mcsplatform instance over HTTP, then
// requests aggregation and prints a comparison of the methods.
//
// Usage:
//
//	mcsagent -url http://localhost:8080 -legit 8 -sybil-accounts 5
//
// The agent fetches the platform's task list, builds walking traces over
// the tasks' POI coordinates, uploads sign-in fingerprint captures and
// sensing reports for every account, and finally asks the platform to
// aggregate with crh, td-fp, td-ts, and td-tr. Transient platform
// failures (connection errors, 5xx) are retried with exponential backoff
// (-retries); permanent rejections are classified via the API's stable
// error codes rather than by matching message text.
//
// With -watch the agent instead opens a long-lived subscription to
// GET /v1/truths:watch and prints on-change truth updates as they are
// pushed, reconnecting (with resume) across platform blips.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/platform"
)

func main() {
	if err := run(); err != nil {
		// The stable error codes let the agent explain platform
		// rejections precisely instead of parsing message strings.
		switch {
		case errors.Is(err, platform.ErrTooManyAccounts):
			fmt.Fprintf(os.Stderr, "mcsagent: %v\n", err)
			fmt.Fprintln(os.Stderr, "mcsagent: the platform's account cap is reached; raise -max-accounts on mcsplatform or drive fewer accounts")
		case errors.Is(err, platform.ErrDuplicateReport):
			fmt.Fprintf(os.Stderr, "mcsagent: %v\n", err)
			fmt.Fprintln(os.Stderr, "mcsagent: an account already reported on this task; use -prefix style isolation (AccountPrefix) or a fresh platform")
		case errors.Is(err, platform.ErrCircuitOpen):
			fmt.Fprintf(os.Stderr, "mcsagent: %v\n", err)
			fmt.Fprintln(os.Stderr, "mcsagent: the client circuit breaker is open after repeated transport failures; check the platform, then retry (tune -breaker-threshold / -breaker-cooldown)")
		case errors.Is(err, platform.ErrRateLimited), errors.Is(err, platform.ErrOverloaded):
			fmt.Fprintf(os.Stderr, "mcsagent: %v\n", err)
			fmt.Fprintln(os.Stderr, "mcsagent: the platform is shedding load; slow down (fewer accounts, lower -activeness) or raise the platform's limits")
		default:
			fmt.Fprintf(os.Stderr, "mcsagent: %v\n", err)
		}
		os.Exit(1)
	}
}

func run() error {
	url := flag.String("url", "http://localhost:8080", "platform base URL")
	legit := flag.Int("legit", 8, "number of honest users")
	sybilAccounts := flag.Int("sybil-accounts", 5, "accounts per Sybil attacker (0 disables attackers)")
	activeness := flag.Float64("activeness", 0.5, "per-account activeness in (0,1]")
	target := flag.Float64("target", -50, "value the attackers fabricate")
	seed := flag.Int64("seed", 1, "random seed")
	timeout := flag.Duration("timeout", 30*time.Second, "overall request timeout")
	retries := flag.Int("retries", 2, "retry attempts for connection errors, 5xx responses, and rate-limit 429s")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive transport failures that open the client circuit breaker (0 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", time.Second, "circuit breaker open -> half-open delay")
	replay := flag.String("replay", "", "replay an archived campaign JSON instead of simulating a crowd")
	batch := flag.Int("batch", 1, "send reports via POST /v1/reports:batch in chunks of this many (1 = one request per report)")
	watch := flag.Bool("watch", false, "subscribe to GET /v1/truths:watch and print on-change truth updates until -timeout elapses (no crowd is driven)")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	client := platform.NewClient(*url, platform.WithConfig(platform.ClientConfig{
		MaxRetries:       *retries,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	}))
	if *watch {
		return runWatch(ctx, client)
	}
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		ds, err := mcs.DecodeJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		n, err := platform.ReplayDataset(ctx, client, ds, platform.ReplayOptions{BatchSize: *batch})
		if err != nil {
			return err
		}
		fmt.Printf("replayed %d submissions from %s\n", n, *replay)
		return printAggregates(ctx, client)
	}

	report, err := platform.DriveCampaign(ctx, client, platform.AgentConfig{
		NumLegit:      *legit,
		SybilAccounts: *sybilAccounts,
		Activeness:    *activeness,
		Target:        *target,
		Seed:          *seed,
		BatchSize:     *batch,
	})
	if err != nil {
		// Surface the breaker position alongside the failure so the
		// operator can tell "platform down, breaker protecting us" from a
		// one-off error.
		if st := client.BreakerState(); st != platform.BreakerClosed {
			return fmt.Errorf("%w (client circuit breaker: %s)", err, st)
		}
		return err
	}

	fmt.Printf("campaign complete: %d accounts over %d tasks\n\n", report.Accounts, report.Tasks)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "method\tMAE vs ground truth\tconverged")
	for _, o := range report.Outcomes {
		fmt.Fprintf(w, "%s\t%.2f dB\t%v\n", o.Method, o.MAE, o.Converged)
	}
	return w.Flush()
}

// runWatch streams on-change truth updates to stdout until the context
// ends. Connection blips are survived transparently: the watcher redials
// with backoff and resumes from the last sequence number it delivered.
func runWatch(ctx context.Context, client *platform.Client) error {
	w, err := client.Watch(ctx, platform.WatchOptions{Reconnect: true})
	if err != nil {
		return err
	}
	fmt.Println("watching truth updates (ctrl-c or -timeout to stop)")
	for u := range w.Updates() {
		fmt.Printf("seq=%-6d task=%-3d value=%.3f round=%d\n", u.Seq, u.Task, u.Value, u.Round)
	}
	// A context deadline/cancel is the normal way out of a watch.
	if err := w.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// printAggregates runs every standard method and prints the estimates
// (replay mode has no agent-side ground truth to score against). A
// platform build that lacks one of the methods reports it as unsupported
// — detected via the unknown_aggregation error code, not message text —
// without aborting the rest.
func printAggregates(ctx context.Context, client *platform.Client) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "method\tconverged\testimates")
	for _, method := range []string{"crh", "td-fp", "td-ts", "td-tr"} {
		resp, err := client.Aggregate(ctx, method)
		if errors.Is(err, platform.ErrUnknownAggregation) {
			fmt.Fprintf(w, "%s\t-\tunsupported by this platform\n", method)
			continue
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%v\t", method, resp.Meta.Converged)
		for _, tr := range resp.Truths {
			if tr.Estimated {
				fmt.Fprintf(w, "%.1f ", tr.Value)
			} else {
				fmt.Fprint(w, "x ")
			}
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}
