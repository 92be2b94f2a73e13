// Command sramload runs the end-to-end service gates against sramd, one row
// of the scenario table in scenario.go each.
//
// Usage:
//
//	sramload -scenario serve -sramd ./sramd-binary          # CI service gate
//	sramload -scenario serve -sramd ./sramd-binary -update  # regenerate golden/serve.json
//	sramload -scenario cache|hier|crash|coord -sramd ./sramd-binary
//	sramload -version
//
// A scenario passes when its result is byte-identical to the in-process
// serial run and to its golden, every /metrics predicate holds, and every
// surviving process exits cleanly on SIGTERM. Only serve and hier own
// their goldens, so only they accept -update.
//
// Exit status: 0 success, 1 any failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"slices"
	"time"

	"cache8t/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sramload: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		sramdBin    = flag.String("sramd", "", "path to the sramd binary each scenario spawns on ephemeral ports")
		scenarioFlg = flag.String("scenario", "", "the end-to-end gate to run: serve, cache, hier, crash or coord")
		update      = flag.Bool("update", false, "with -scenario serve or hier, regenerate the row's golden instead of comparing")
		timeout     = flag.Duration("timeout", 5*time.Minute, "overall deadline")
		showVersion = flag.Bool("version", false, "print version (git SHA + artifact schema) and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(report.Version("sramload"))
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	i := slices.IndexFunc(scenarios, func(sc scenario) bool { return sc.name == *scenarioFlg })
	switch {
	case i < 0:
		return fmt.Errorf("unknown -scenario %q (see -help)", *scenarioFlg)
	case *sramdBin == "":
		return errors.New("-scenario requires -sramd: every row spawns its own processes")
	case *update && !scenarios[i].ownsGolden:
		return fmt.Errorf("-update: scenario %s compares against %s, which it does not own", *scenarioFlg, scenarios[i].golden)
	}
	return runScenario(ctx, scenarios[i], *sramdBin, *update)
}
