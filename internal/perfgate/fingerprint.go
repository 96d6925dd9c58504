package perfgate

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Fingerprint records the environment a benchmark run was measured in.
// A gate run prints it once, above its tables; the end-to-end benchmark
// (benchmark/) stamps it on every output line.
type Fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Commit     string `json:"commit,omitempty"`
	Time       string `json:"time,omitempty"` // RFC 3339, when measured
}

// CurrentFingerprint captures the environment of this process. dir is
// the repository root used for the git-commit lookup; commit and
// CPU-model discovery are best-effort (empty on failure — a fingerprint
// must never make a benchmark run fail).
func CurrentFingerprint(dir string) Fingerprint {
	return Fingerprint{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(dir),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the CPU model name. On Linux it comes from
// /proc/cpuinfo; elsewhere (or on failure) it is empty.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return ""
}

// gitCommit returns the abbreviated HEAD commit of dir, or "" when git
// or the repository is unavailable.
func gitCommit(dir string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
