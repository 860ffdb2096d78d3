mdrun -ntmpi 8 -ntomp 5 -dlb no -nstlist 40 -gpu_id 00001111 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 4 -ntomp 4 -npme 2 -ntomp_pme 6 -gpu_id 01 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 64 -ntomp 4 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 5 -ntomp 8 -nstlist 20 -dd 5 1 1 -gpu_id 00011 -s in.tpr -nsteps 5000 -resetstep 1000
