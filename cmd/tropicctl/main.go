// Command tropicctl is the operator CLI for a running tropicd: it
// submits transactional orchestrations, inspects their records, streams
// their state transitions, sends TERM/KILL signals, and triggers
// reconciliation (repair/reload). It is built on repro/tropic/httpclient,
// the same SDK applications use, so it carries the client's zxid
// watermark across requests: a `submit` followed by a `get` in one
// invocation always observes the submission, whichever replica serves
// the read (docs/reads.md).
//
//	tropicctl -addr http://localhost:7077 submit spawnVM \
//	    /storageRoot/storageHost0000 /vmRoot/vmHost00000 vm1 1024
//	tropicctl get t-s5c00000001
//	tropicctl watch t-s5c00000001
//	tropicctl wait t-s5c00000001
//	tropicctl signal t-s5c00000002 TERM
//	tropicctl repair /vmRoot/vmHost00000
//	tropicctl stats
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/tropic"
	"repro/tropic/httpclient"
)

func main() {
	addr := flag.String("addr", "http://localhost:7077", "tropicd base URL")
	wait := flag.Bool("wait", true, "submit: wait for the terminal state")
	timeout := flag.Duration("timeout", 5*time.Minute, "deadline for wait and watch")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cli := httpclient.New(*addr)
	defer cli.Close()
	// ^C ends a stream cleanly instead of leaving the terminal mid-event.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	var err error
	switch args[0] {
	case "submit":
		if len(args) < 2 {
			err = fmt.Errorf("submit needs a procedure name")
			break
		}
		err = submit(ctx, cli, args[1], args[2:], *wait)
	case "get":
		err = printTxn(cli.Get(arg(args, 1)))
	case "wait":
		err = printTxn(cli.Wait(ctx, arg(args, 1)))
	case "watch":
		err = watch(ctx, cli, arg(args, 1))
	case "list":
		err = list(cli, arg(args, 1))
	case "signal":
		if len(args) < 3 {
			err = fmt.Errorf("signal needs <id> <TERM|KILL>")
			break
		}
		err = ok(cli.Signal(args[1], tropic.Signal(args[2])))
	case "repair":
		err = ok(cli.Repair(ctx, arg(args, 1)))
	case "reload":
		err = ok(cli.Reload(ctx, arg(args, 1)))
	case "stats":
		err = stats(ctx, cli)
	default:
		err = fmt.Errorf("unknown command %q", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tropicctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: tropicctl [-addr URL] <command> [args]

commands:
  submit <proc> [args...]   submit a transaction (waits unless -wait=false)
  get <id>                  fetch a transaction record
  wait <id>                 block until the transaction is terminal
  watch <id>                stream state transitions until terminal (SSE)
  list [state]              page through records, optionally by state
  signal <id> <TERM|KILL>   abort a stalled transaction (§4)
  repair <path>             logical→physical reconciliation
  reload <path>             physical→logical reconciliation
  stats                     controller and worker counters
`)
	flag.PrintDefaults()
}

func arg(args []string, i int) string {
	if i < len(args) {
		return args[i]
	}
	return ""
}

func submit(ctx context.Context, cli *httpclient.Client, proc string, procArgs []string, wait bool) error {
	id, err := cli.Submit(proc, procArgs...)
	if err != nil {
		return err
	}
	fmt.Println("submitted", id)
	if !wait {
		return nil
	}
	// The client's watermark already covers the submission, so this read
	// is session-consistent even against a follower replica.
	return printTxn(cli.Wait(ctx, id))
}

// watch streams the record's transitions, one JSON line per state, and
// exits once the terminal record has been printed.
func watch(ctx context.Context, cli *httpclient.Client, id string) error {
	if id == "" {
		return fmt.Errorf("transaction id required")
	}
	ch, err := cli.WatchTxn(ctx, id)
	if err != nil {
		return err
	}
	var last *tropic.Txn
	for rec := range ch {
		last = rec
		line, merr := json.Marshal(rec)
		if merr != nil {
			return merr
		}
		fmt.Println(string(line))
	}
	if last == nil || !last.State.Terminal() {
		return fmt.Errorf("watch %s: stream ended before a terminal state", id)
	}
	return nil
}

func list(cli *httpclient.Client, state string) error {
	opts := tropic.ListOptions{State: tropic.State(state)}
	for {
		page, err := cli.List(opts)
		if err != nil {
			return err
		}
		for _, rec := range page.Txns {
			if err := printJSON(rec); err != nil {
				return err
			}
		}
		if page.NextCursor == "" {
			return nil
		}
		opts.Cursor = page.NextCursor
	}
}

func stats(ctx context.Context, cli *httpclient.Client) error {
	doc, err := cli.Stats(ctx)
	if err != nil {
		return err
	}
	return printJSON(doc)
}

func printTxn(rec *tropic.Txn, err error) error {
	if err != nil {
		return err
	}
	return printJSON(rec)
}

func ok(err error) error {
	if err != nil {
		return err
	}
	fmt.Println("ok")
	return nil
}

func printJSON(v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
