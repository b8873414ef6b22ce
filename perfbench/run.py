#!/usr/bin/env python3
"""Benchmark launcher.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the harness in perfbench/ (an sbt build that depends on the
repository's own sources) when its sources changed since the last build,
then runs one JVM per workload. The JVM prints human-readable lines and, as
its last line, one JSON object with the metrics; this script passes that
output through unchanged. Build logs go to standard error.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
TMP = os.path.join(TARGET, "tmp")
CLASSPATH_FILE = os.path.join(TARGET, "classpath.txt")

WORKLOADS = ["hepar2-table-row", "alarm-microbatch"]
HEAP = "3g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Spark on JDK 17 needs these opened to the unnamed module.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the build reads, in a fixed order."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
             os.path.join(ROOT, "project"), os.path.join(HERE, "src"), os.path.join(HERE, "project")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    for r in roots:
        for dirpath, dirnames, filenames in os.walk(r):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    return files


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def classpath():
    """The harness classpath, building first when the sources changed."""
    stamp = source_hash()
    if os.path.exists(CLASSPATH_FILE):
        with open(CLASSPATH_FILE) as fh:
            saved_stamp, cp = fh.read().split("\n", 1)
        if saved_stamp == stamp:
            return cp.strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    for flag in ["-Dsbt.offline=true", "-Dsbt.override.build.repos=true",
                 "-Djava.io.tmpdir=" + TMP]:
        if flag.split("=")[0] not in opts:
            opts += " " + flag
    env["SBT_OPTS"] = opts.strip()
    print("perfbench: building the harness", file=sys.stderr)
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=BUILD_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0 or not lines or "perfbench" not in lines[-1]:
        fail("build failed (sbt exit code %d)" % proc.returncode)
    cp = lines[-1].strip()
    with open(CLASSPATH_FILE, "w") as fh:
        fh.write(stamp + "\n" + cp + "\n")
    return cp


def run_workload(cp, args):
    cmd = (["java", "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:+UseG1GC",
            "-Djava.io.tmpdir=" + TMP, "-Dspark.local.dir=" + TMP]
           + ["--add-opens=%s=ALL-UNNAMED" % p for p in ADD_OPENS]
           + ["-cp", cp, "perfbench.Main"] + args)
    # Spark prefers these variables over spark.local.dir; keep its scratch
    # files inside the checkout.
    env = dict(os.environ, SPARK_LOCAL_DIRS=TMP)
    env.pop("LOCAL_DIRS", None)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main(argv):
    if "--workload" not in argv[:-1]:
        fail("usage: run.py --workload <%s|all> --seed <n> --seconds <s> --trace <0|1>"
             % "|".join(WORKLOADS))
    for needed in ["build.sbt", os.path.join("src", "main", "scala")]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("the repository's %s is missing next to perfbench/; run from a full checkout" % needed)
    os.makedirs(TMP, exist_ok=True)
    cp = classpath()
    i = argv.index("--workload")
    names = WORKLOADS if argv[i + 1] == "all" else [argv[i + 1]]
    for name in names:
        code = run_workload(cp, argv[:i + 1] + [name] + argv[i + 2:])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
