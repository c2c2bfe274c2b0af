"""Run commands for the cli workload and report each one's peak RSS.

A child's ru_maxrss also counts the peak RSS of the process that forked it,
so the benchmark process (which holds the workload's inputs and checks)
would hide the CLI's own footprint. This small process, started with
`python -S`, forks the CLI processes instead.

Protocol, one request at a time: a JSON list (argv) on a line of stdin; the
reply is a JSON line [returncode, maxrss_kib, len(stdout), len(stderr)]
followed by those stdout and stderr bytes.
"""
import json
import os
import subprocess
import sys
import threading


def main() -> None:
    reply = sys.stdout.buffer
    for line in sys.stdin:
        cmd = json.loads(line)
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            err = []
            reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
            reader.start()
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        header = [proc.returncode, usage.ru_maxrss, len(out), len(err[0])]
        reply.write(json.dumps(header).encode() + b"\n" + out + err[0])
        reply.flush()


if __name__ == "__main__":
    main()
